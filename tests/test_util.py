"""The finite-difference reference of the gradient checks."""

import numpy as np

from util import grad_check


def test_grad_check_accepts_correct_gradient():
    def f(x):
        return float(np.sum(x ** 3)), 3.0 * x ** 2

    assert grad_check(f, np.array([0.5, -1.0, 2.0])) < 1e-8


def test_grad_check_flags_wrong_gradient():
    def f(x):
        return float(np.sum(x ** 2)), 3.0 * x  # wrong: should be 2x

    assert grad_check(f, np.array([1.0, -2.0])) > 1e-2
