import numpy as np
import pytest

from dsae.numeric.rng import Rng


def test_deterministic_across_instances():
    a = Rng(42, stream=3).uniform((100,))
    b = Rng(42, stream=3).uniform((100,))
    assert np.array_equal(a, b)


def test_streams_differ():
    a = Rng(42, stream=0).uniform((100,))
    b = Rng(42, stream=1).uniform((100,))
    assert not np.array_equal(a, b)


def test_seeds_differ():
    a = Rng(1).uniform((100,))
    b = Rng(2).uniform((100,))
    assert not np.array_equal(a, b)


def test_uniform_range_and_moments():
    u = Rng(7).uniform((200_000,))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(float(u.mean()) - 0.5) < 5e-3
    assert abs(float(u.var()) - 1.0 / 12.0) < 5e-3


def test_normal_moments():
    z = Rng(11).normal((200_000,))
    assert abs(float(z.mean())) < 1e-2
    assert abs(float(z.std()) - 1.0) < 1e-2


def test_normal_scale():
    rng = Rng(11)
    z = rng.normal((1000,), scale=0.1)
    assert abs(float(z.std()) - 0.1) < 0.02


def test_randint_bounds():
    rng = Rng(5)
    draws = [rng.randint(7) for _ in range(1000)]
    assert set(draws) == set(range(7))


def test_randint_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).randint(0)


def test_permutation_is_permutation():
    for n in (1, 2, 17, 100):
        p = Rng(3).permutation(n)
        assert sorted(p.tolist()) == list(range(n))


def test_shuffle_returns_copy():
    items = [1, 2, 3, 4, 5]
    out = Rng(9).shuffle(items)
    assert items == [1, 2, 3, 4, 5]
    assert sorted(out) == items


def test_shuffle_deterministic():
    assert Rng(9).shuffle(list(range(50))) == Rng(9).shuffle(list(range(50)))



@pytest.mark.parametrize("seed, stream", [(0, 0), (42, 3), (2**64 + 9, 11)])
def test_scalar_draws_equal_block_draws(seed, stream):
    """Scalar uniform()/randint(n) draws, computed on Python ints, are the
    block outputs at the same counters, and a block draw afterwards goes on
    from the next counter."""
    scalar = Rng(seed, stream)
    words = [int(w) for w in Rng(seed, stream)._block(5001)]
    for i, word in enumerate(words[:5000]):
        if i % 3 == 0:
            assert scalar.uniform() == (word >> 11) * 2.0 ** -53
        else:
            n = i if i % 3 == 1 else 2**40 + i
            assert scalar.randint(n) == (word * n) >> 64
    assert int(scalar._block(1)[0]) == words[5000]
