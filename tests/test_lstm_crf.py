import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsae.annotation import BIO_LABELS
from dsae.evaluate import exact_bio_f1
from dsae.ner import lstm_crf
from dsae.ner.lstm_crf import (LstmCrfConfig, LstmCrfModel, lstm_crf_decode,
                               lstm_crf_objective, lstm_crf_train, nll_and_grad)
from dsae.numeric.optim import grad_check
from dsae.numeric.params import ParamVector
from dsae.numeric.rng import Rng


LABELS = BIO_LABELS


def test_init_orthogonal_recurrent_and_forget_bias():
    model = LstmCrfModel.init(input_dim=6, hidden=5, labels=LABELS, seed=0)
    H = 5
    for k in range(2):
        Wh = model.params["Wh"][k]
        for gate in range(4):
            block = Wh[:, gate * H:(gate + 1) * H]
            assert np.allclose(block.T @ block, np.eye(H), atol=1e-10)
        b = model.params["b"][k]
        assert np.all(b[H:2 * H] == 1.0)
        assert np.all(b[:H] == 0.0) and np.all(b[2 * H:] == 0.0)


def test_init_draws_forward_then_backward_direction():
    """Direction 0 takes the first Rng(seed, 23) draws, Wx before its four
    Wh blocks, then direction 1, then Wp."""
    d, H = 5, 3
    model = LstmCrfModel.init(d, H, LABELS, seed=4)
    rng = Rng(4, stream=23)
    r = np.sqrt(6.0 / (d + 4 * H))
    for k in range(2):
        assert np.array_equal(model.params["Wx"][k],
                              (rng.uniform((d, 4 * H)) * 2 - 1) * r)
        for gate in range(4):
            assert np.array_equal(model.params["Wh"][k, :, gate * H:(gate + 1) * H],
                                  lstm_crf._orthogonal(H, rng))
    r = np.sqrt(6.0 / (2 * H + len(LABELS)))
    assert np.array_equal(model.params["Wp"],
                          (rng.uniform((2 * H, len(LABELS))) * 2 - 1) * r)


def test_init_deterministic_in_seed():
    a = LstmCrfModel.init(4, 3, LABELS, seed=7)
    b = LstmCrfModel.init(4, 3, LABELS, seed=7)
    c = LstmCrfModel.init(4, 3, LABELS, seed=8)
    assert np.array_equal(a.params.data, b.params.data)
    assert not np.array_equal(a.params.data, c.params.data)


def test_objective_gradient_check():
    rng = Rng(0, stream=14)
    for trial in range(3):
        model = LstmCrfModel.init(input_dim=4, hidden=3, labels=LABELS,
                                  seed=trial)
        L = 5
        X = rng.normal((L, 4))
        y = np.array([rng.randint(len(LABELS)) for _ in range(L)], dtype=np.int64)
        objective = lstm_crf_objective(model, X, y)
        x0 = model.params.data + rng.normal((model.params.data.size,), scale=0.05)
        assert grad_check(objective, x0) < 1e-6


def _batch(rng, lengths, d):
    Xs = [rng.normal((n, d)) for n in lengths]
    ys = [np.array([rng.randint(len(LABELS)) for _ in range(n)]) for n in lengths]
    return Xs, ys


def test_batch_gradient_check():
    rng = Rng(1, stream=14)
    model = LstmCrfModel.init(input_dim=4, hidden=3, labels=LABELS, seed=1)
    Xs, ys = _batch(rng, (5, 2, 4), 4)

    def objective(flat):
        p = ParamVector(model.params.shapes)
        p.set_data(flat)
        g = p.zeros_like()
        return nll_and_grad(p, Xs, ys, 3, g), g.data

    x0 = model.params.data + rng.normal((model.params.size,), scale=0.05)
    assert grad_check(objective, x0) < 1e-6


@pytest.mark.parametrize("silent", [0, 1])
def test_directions_do_not_mix(silent):
    """With one direction's half of Wp zeroed, that direction's weights get
    exactly zero gradient and the other direction's do not."""
    rng = Rng(2, stream=15)
    H = 4
    model = LstmCrfModel.init(3, H, LABELS, seed=2)
    model.params.data += rng.normal((model.params.size,), scale=0.3)
    model.params["Wp"][silent * H:(silent + 1) * H] = 0.0
    Xs, ys = _batch(rng, (4, 1, 6), 3)
    grad = model.params.zeros_like()
    nll_and_grad(model.params, Xs, ys, H, grad)
    for name in ("Wx", "Wh", "b"):
        assert not np.any(grad[name][silent])
        assert np.all(np.any(grad[name][1 - silent] != 0.0, axis=-1))


def reference_scores(params, X, H):
    """Label scores of one sequence from a step-by-step BiLSTM: the forward
    direction reads X left to right, the backward one right to left."""
    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a))

    def run(rows, k):
        h, c, out = np.zeros(H), np.zeros(H), []
        for x in rows:
            a = x @ params["Wx"][k] + h @ params["Wh"][k] + params["b"][k]
            i, f, o = sigmoid(a[:H]), sigmoid(a[H:2 * H]), sigmoid(a[3 * H:])
            c = f * c + i * np.tanh(a[2 * H:3 * H])
            h = o * np.tanh(c)
            out.append(h)
        return np.array(out)

    hidden = np.concatenate([run(X, 0), run(X[::-1], 1)[::-1]], axis=1)
    return hidden @ params["Wp"] + params["bp"]


def test_padded_forward_matches_step_by_step_reference():
    rng = Rng(5, stream=15)
    model = LstmCrfModel.init(3, 4, LABELS, seed=5)
    model.params.data += rng.normal((model.params.size,), scale=0.3)
    Xs = [rng.normal((n, 3)) for n in (4, 1, 6, 3)]
    scores, _ = lstm_crf._forward_scores(model.params, Xs, 4)
    assert scores.shape == (4, 6, len(LABELS))
    for X, row in zip(Xs, scores):
        assert np.allclose(row[:len(X)], reference_scores(model.params, X, 4),
                           rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 16), order=st.randoms(use_true_random=False))
def test_batched_gradient_equals_sum_of_sequences(lengths, seed, order):
    """The batch's loss and gradient are the sums of its sequences', in any
    batch order, and garbage in the padding changes nothing at all."""
    rng = Rng(seed, stream=15)
    d, H = 3, 4
    model = LstmCrfModel.init(d, H, LABELS, seed=seed)
    params = model.params
    params.data += rng.normal((params.size,), scale=0.3)
    Xs = [rng.normal((n, d)) for n in lengths]
    ys = [np.array([rng.randint(len(LABELS)) for _ in range(n)]) for n in lengths]

    expected = params.zeros_like()
    value = sum(nll_and_grad(params, [X], [y], H, expected) for X, y in zip(Xs, ys))
    perm = list(range(len(Xs)))
    order.shuffle(perm)
    Xs, ys = [Xs[k] for k in perm], [ys[k] for k in perm]
    grad = params.zeros_like()
    assert nll_and_grad(params, Xs, ys, H, grad) == pytest.approx(value, rel=1e-12)
    scale = max(1.0, float(np.max(np.abs(expected.data))))
    assert np.max(np.abs(grad.data - expected.data)) <= 1e-12 * scale

    zero_pad = lstm_crf._pad

    def garbage_pad(seqs, L):
        out = zero_pad(seqs, L)
        for row, X in zip(out, seqs):
            row[len(X):] = rng.normal(row[len(X):].shape, scale=50.0)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lstm_crf, "_pad", garbage_pad)
        noisy = params.zeros_like()
        assert nll_and_grad(params, Xs, ys, H, noisy) == nll_and_grad(params, Xs, ys, H)
    assert np.array_equal(noisy.data, grad.data)
    # the padded forward pass decodes every sequence as it does alone
    decoded = lstm_crf._decode_all(model, Xs)
    assert decoded == [lstm_crf_decode(model, X) for X in Xs]


def test_decode_deterministic_and_empty():
    model = LstmCrfModel.init(4, 3, LABELS, seed=0)
    X = Rng(1, stream=14).normal((6, 4))
    assert lstm_crf_decode(model, X) == lstm_crf_decode(model, X)
    assert lstm_crf_decode(model, np.zeros((0, 4))) == []


@pytest.fixture(scope="module")
def memorizable():
    # one repeated pattern: feature channel identifies the label directly
    rng = Rng(2, stream=14)
    data = []
    for i in range(12):
        y = ["O", "B-SUPP", "I-SUPP", "O", "B-SYMP"]
        X = np.stack([rng.normal((3,), scale=0.05)
                      + np.eye(5, 3)[[0, 1, 2, 0, 1][t]] * (1 if t < 4 else -1)
                      for t in range(5)])
        data.append((X, y))
    return data


def test_train_memorizes_small_set(memorizable):
    cfg = LstmCrfConfig(hidden=8, epochs=60, batch_size=4, lr=0.02,
                        weight_decay=0.0, seed=0)
    model = lstm_crf_train(memorizable, cfg, dev=memorizable[:4])
    preds = [lstm_crf_decode(model, X) for X, _ in memorizable]
    assert exact_bio_f1([y for _, y in memorizable], preds) == 1.0


def test_train_loss_decreases(memorizable):
    X, y = memorizable[0]
    yi = np.array([LABELS.index(lab) for lab in y], dtype=np.int64)
    init = LstmCrfModel.init(X.shape[1], 8, LABELS, seed=0)
    loss_before = lstm_crf_objective(init, X, yi)(init.params.data)[0]
    cfg = LstmCrfConfig(hidden=8, epochs=20, batch_size=4, lr=0.02,
                        weight_decay=0.0, seed=0)
    trained = lstm_crf_train(memorizable, cfg)
    loss_after = lstm_crf_objective(trained, X, yi)(trained.params.data)[0]
    assert loss_after < loss_before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_nonfinite_loss_names_epoch_and_batch(memorizable):
    bad = [(np.full_like(X, np.nan), y) for X, y in memorizable]
    cfg = LstmCrfConfig(hidden=4, epochs=1, batch_size=4, seed=0)
    with pytest.raises(FloatingPointError, match=r"epoch 0, batch 0"):
        lstm_crf_train(bad, cfg)


def test_train_rejects_empty():
    with pytest.raises(ValueError):
        lstm_crf_train([], LstmCrfConfig())

