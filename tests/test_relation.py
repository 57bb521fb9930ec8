import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsae import relation
from dsae.annotation import EVENT_TYPES, RELATION_LABELS, RelationInstance
from dsae.embeddings import EmbeddingTable, TokenRows
from dsae.ner.predict import doc_matrix
from dsae.numeric.rng import Rng
from dsae.relation import (N_FILTERS, POS_DIM, CnnReConfig, CnnReModel, EncodedInstance,
                           class_weights, classify_pairs, cnn_forward, cnn_loss_and_grad,
                           cnn_train, encode_instance)
from dsae.serialization import save_model

from util import flat_objective, grad_check, make_doc, span


@pytest.fixture(scope="module")
def emb():
    words = [f"w{i}" for i in range(30)] + ["vitamin", "c", "nausea", "sleep"]
    vocab = {w: i for i, w in enumerate(words)}
    return EmbeddingTable(6, vocab, Rng(0, stream=16).normal((len(words), 6)))


def instance(doc, hs, he, ts, te, label="NoRelation", tail_type="Symptom"):
    head = span(doc, "T1", "Supplement", hs, he)
    tail = span(doc, "T2", tail_type, ts, te)
    return RelationInstance(doc.doc_id, head, tail, label)


# --------------------------------------------------------------- encoding

def test_encode_markers_wrap_entities(emb):
    doc = make_doc("d", ["w0", "vitamin", "c", "w1", "nausea", "w2"])
    enc = encode_instance(instance(doc, 1, 3, 4, 5), doc, emb, max_len=16)
    # 6 tokens + 4 markers
    assert enc.table[enc.rows].shape == (10, 7)
    assert list(enc.marker_ids) == [-1, 0, -1, -1, 1, -1, 2, -1, 3, -1]
    # marker rows carry no token of their own: any valid row, which the
    # model's marker vectors overwrite
    assert np.all((enc.rows >= 0) & (enc.rows < len(enc.table)))
    # oov flag set only for unknown words
    doc2 = make_doc("d2", ["qqq", "vitamin"])
    enc2 = encode_instance(instance(doc2, 1, 2, 0, 1), doc2, emb, max_len=16)
    real = enc2.marker_ids < 0
    assert list(enc2.table[enc2.rows[real], -1]) == [1.0, 0.0]


def test_encode_relative_positions(emb):
    doc = make_doc("d", ["w0", "vitamin", "c", "w1", "nausea", "w2"])
    m = 16
    enc = encode_instance(instance(doc, 1, 3, 4, 5), doc, emb, max_len=m)
    # markers take the pre-marker token's index, so <h> shares position with
    # the entity start
    real_or_marker_idx = [0, 1, 1, 2, 2, 3, 4, 4, 4, 5]
    expected_head = []
    expected_tail = []
    for idx in real_or_marker_idx:
        h = 0 if 1 <= idx < 3 else (idx - 1 if idx < 1 else idx - 2)
        t = 0 if idx == 4 else (idx - 4)
        expected_head.append(max(-m, min(m, h)) + m)
        expected_tail.append(max(-m, min(m, t)) + m)
    assert list(enc.pos_head) == expected_head
    assert list(enc.pos_tail) == expected_tail


def test_encode_position_clamping(emb):
    words = ["vitamin"] + [f"w{i % 30}" for i in range(20)] + ["nausea"]
    doc = make_doc("d", words)
    enc = encode_instance(instance(doc, 0, 1, 21, 22), doc, emb, max_len=8)
    # no window of 4 tokens holds both entities: the encoding keeps tokens
    # 0, 1, 20 and 21, and every offset beyond 8 saturates at the clamp,
    # -8 shifted to 0 or 8 shifted to 16
    assert list(enc.marker_ids) == [0, -1, 1, -1, -1, 2, -1, 3]
    assert list(enc.pos_head) == [8, 8, 8, 9, 16, 16, 16, 16]
    assert list(enc.pos_tail) == [0, 0, 0, 0, 7, 8, 8, 8]


def test_encode_truncation_centered_and_keeps_entities(emb):
    words = [f"w{i % 30}" for i in range(100)]
    words[40], words[50] = "vitamin", "nausea"
    doc = make_doc("d", words)
    enc = encode_instance(instance(doc, 40, 41, 50, 51), doc, emb, max_len=24)
    assert enc.table[enc.rows].shape[0] == 24  # budget 20 tokens + 4 markers
    assert sorted(enc.marker_ids[enc.marker_ids >= 0]) == [0, 1, 2, 3]
    # both entities survive truncation: shifted offset 24 means "inside span"
    assert np.any(enc.pos_head == 24) and np.any(enc.pos_tail == 24)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_truncation_window_is_the_feasible_start_nearest_the_centre(data):
    """A document longer than ``max_len - 4`` tokens whose two entities fit
    in one window keeps a run of exactly ``max_len - 4`` tokens that holds
    both, starting at the start of such a run nearest the one that centres
    the entities."""
    max_len = data.draw(st.integers(6, 24), label="max_len")
    budget = max_len - 4
    n = data.draw(st.integers(budget + 1, budget + 30), label="n")
    # two disjoint entities, span_hi - span_lo <= budget tokens from the
    # first one's start to the second one's end
    span_lo = data.draw(st.integers(0, n - 2), label="span_lo")
    span_hi = data.draw(st.integers(span_lo + 2, min(n, span_lo + budget)), label="span_hi")
    first_end = data.draw(st.integers(span_lo + 1, span_hi - 1), label="first_end")
    second_start = data.draw(st.integers(first_end, span_hi - 1), label="second_start")
    head, tail = data.draw(st.permutations([(span_lo, first_end), (second_start, span_hi)]))
    words = [f"v{i}" for i in range(n)]
    table = EmbeddingTable(2, {w: i for i, w in enumerate(words)}, np.zeros((n, 2)))
    doc = make_doc("d", words)
    enc = encode_instance(instance(doc, *head, *tail), doc, table, max_len=max_len)

    kept = list(enc.rows[enc.marker_ids < 0])  # row i is token i
    start = kept[0]
    assert kept == list(range(start, start + budget))
    assert start <= span_lo and span_hi <= start + budget
    centred = (span_lo + span_hi) // 2 - budget // 2
    feasible = [s for s in range(n - budget + 1) if s <= span_lo and span_hi <= s + budget]
    assert start == min(feasible, key=lambda s: abs(s - centred))
    assert sorted(enc.marker_ids[enc.marker_ids >= 0]) == [0, 1, 2, 3]


@pytest.mark.parametrize("max_len", [5, 6, 8, 10, 64])
@pytest.mark.parametrize("head, tail", [((0, 1), (99, 100)), ((99, 100), (0, 1)),
                                        ((0, 3), (96, 100)), ((96, 100), (0, 3))])
def test_encode_far_apart_pair_keeps_both_entities(emb, max_len, head, tail):
    doc = make_doc("d", [f"w{i % 30}" for i in range(100)])
    enc = encode_instance(instance(doc, *head, *tail), doc, emb, max_len=max_len)
    assert len(enc.marker_ids) <= max_len
    assert sorted(enc.marker_ids[enc.marker_ids >= 0]) == [0, 1, 2, 3]
    # the kept tokens: both entities, their edge tokens first, then the
    # tokens between them nearest an entity, in document order
    spans = (range(*head), range(*tail))
    entity = sorted(set(spans[0]) | set(spans[1]),
                    key=lambda i: (min(min(i - s.start, s.stop - 1 - i) for s in spans if i in s), i))
    first, second = sorted(spans, key=lambda s: s.start)
    gap = sorted(range(first.stop, second.start),
                 key=lambda i: min(i - first.stop + 1, second.start - i))
    kept = sorted((entity + gap)[:max_len - 4])
    assert np.array_equal(enc.rows[enc.marker_ids < 0], doc_matrix(doc, emb).rows[kept])


def test_instance_references_the_shared_table(emb):
    """An instance holds row numbers into the table's one row matrix and no
    float array of its own."""
    doc = make_doc("d", ["w0", "vitamin", "c", "w1", "nausea", "w2"])
    enc = encode_instance(instance(doc, 1, 3, 4, 5), doc, emb, max_len=16)
    assert enc.table is emb.row_matrix
    assert np.shares_memory(enc.table, emb.row_matrix)
    arrays = [getattr(enc, f.name) for f in fields(enc) if f.name != "table"]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == 4 and all(a.dtype.kind == "i" for a in arrays)
    assert not any(np.shares_memory(a, emb.row_matrix) for a in arrays)


def test_instance_is_the_shared_token_input(emb):
    """An instance is a ``TokenRows`` over the table's row matrix, one row
    per position: the document's token rows, and a row at each marker."""
    words = ["w0", "vitamin", "c", "w1", "nausea", "w2"]
    doc = make_doc("d", words)
    enc = encode_instance(instance(doc, 1, 3, 4, 5), doc, emb, max_len=16)
    assert isinstance(enc, TokenRows)
    assert enc.table is emb.row_matrix
    assert len(enc) == len(enc.marker_ids) == len(words) + 4
    assert np.array_equal(enc.rows[enc.marker_ids < 0], emb.tokens(words).rows)


def test_encoding_copies_no_word_vectors():
    """500 instances of a 40-token document over a 300-dimensional table
    allocate under 4 KB each; a copy of their 44 rows would take 106 KB."""
    words = [f"v{i}" for i in range(50)]
    table = EmbeddingTable(300, {w: i for i, w in enumerate(words)},
                           Rng(1, stream=16).normal((len(words), 300)))
    doc = make_doc("d", [words[i % len(words)] for i in range(40)])
    probe = instance(doc, 3, 5, 30, 31)
    encode_instance(probe, doc, table)  # first-call caches
    tracemalloc.start()
    try:
        encs = [encode_instance(probe, doc, table) for _ in range(500)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(encs[0].marker_ids) == 44
    assert peak / len(encs) < 4096


def test_encode_rejects_out_of_range(emb):
    # spans built against a longer doc, encoded against a shorter one
    long_doc = make_doc("d", ["vitamin", "w0", "w1", "nausea"])
    short_doc = make_doc("d", ["vitamin", "w0"])
    inst = instance(long_doc, 0, 1, 3, 4)
    with pytest.raises(ValueError, match="outside"):
        encode_instance(inst, short_doc, emb, max_len=16)


# --------------------------------------------------------------- forward

def test_zero_weights_give_uniform_probs(emb):
    doc = make_doc("d", ["vitamin", "c", "w1", "nausea"])
    enc = encode_instance(instance(doc, 0, 2, 3, 4), doc, emb, max_len=16)
    cfg = CnnReConfig(max_len=16, seed=0)
    model = CnnReModel.init(emb.dim + 1, cfg)
    model.params.data[:] = 0.0
    probs, _ = cnn_forward(model, enc)
    assert np.allclose(probs, 1.0 / 3.0, atol=0)


def test_dropout_requires_rng(emb):
    doc = make_doc("d", ["vitamin", "nausea"])
    enc = encode_instance(instance(doc, 0, 1, 1, 2, label="Indication"),
                          doc, emb, max_len=16)
    model = CnnReModel.init(emb.dim + 1, CnnReConfig(max_len=16))
    with pytest.raises(ValueError, match="Rng"):
        cnn_loss_and_grad(model, [enc], [1.0], None, train_mode=True)


def test_cnn_gradient_check(emb):
    doc = make_doc("d", ["vitamin", "c", "w1", "nausea", "w2"])
    enc = encode_instance(instance(doc, 0, 2, 3, 4, label="AdverseEvent"),
                          doc, emb, max_len=12)
    model = CnnReModel.init(emb.dim + 1, CnnReConfig(max_len=12, seed=3))
    objective = flat_objective(model, [enc], [1.3])
    x0 = model.params.data.copy()
    # eps kept small so the finite-difference sweep stays clear of the
    # ReLU/argmax kinks
    assert grad_check(objective, x0, eps=1e-6) < 1e-4


def random_table(rng, d, rows=12):
    """A read-only row matrix of ``rows`` random word rows of width ``d``."""
    table = rng.normal((rows, d))
    table.flags.writeable = False
    return table


def random_instance(rng, length, table, max_len):
    return EncodedInstance(
        rows=np.array([rng.randint(len(table)) for _ in range(length)]),
        table=table,
        marker_ids=np.array([rng.randint(6) - 2 for _ in range(length)]).clip(-1),
        pos_head=np.array([rng.randint(2 * max_len + 1) for _ in range(length)]),
        pos_tail=np.array([rng.randint(2 * max_len + 1) for _ in range(length)]),
        label=rng.randint(len(RELATION_LABELS)))


class RecordingRng(Rng):
    """An Rng that keeps every block of uniforms it hands out."""

    def __init__(self, seed, stream):
        super().__init__(seed, stream)
        self.draws = []

    def uniform(self, size=None):
        u = super().uniform(size)
        self.draws.append(u)
        return u


@settings(max_examples=30, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16), dropout=st.sampled_from([0.0, 0.3]))
def test_batched_gradient_equals_sum_of_instances(lengths, seed, dropout):
    """The batch's loss and gradient are the sums of its instances' in
    batch-of-one calls, padding never wins the max over time, and with
    dropout on, row b of the batch's draws is what instance b draws alone."""
    rng = Rng(seed, stream=17)
    d, max_len = 4, 6
    model = CnnReModel.init(d, CnnReConfig(max_len=max_len, dropout=dropout, seed=seed))
    model.params.data += rng.normal((model.params.size,), scale=0.3)
    table = random_table(rng, d)
    encs = [random_instance(rng, n, table, max_len) for n in lengths]
    weights = rng.uniform(len(encs)) + 0.5

    expected = model.params.zeros_like()
    alone = RecordingRng(seed, stream=41)
    value = sum(cnn_loss_and_grad(model, [enc], [w], expected, train_mode=True, rng=alone)
                for enc, w in zip(encs, weights))
    together = RecordingRng(seed, stream=41)
    grad = model.params.zeros_like()
    assert cnn_loss_and_grad(model, encs, weights, grad, train_mode=True,
                             rng=together) == pytest.approx(value, rel=1e-12)
    scale = max(1.0, float(np.max(np.abs(expected.data))))
    assert np.max(np.abs(grad.data - expected.data)) <= 1e-12 * scale
    if dropout:
        assert len(together.draws) == 1
        assert np.array_equal(together.draws[0], np.concatenate(alone.draws))
    else:
        assert together.draws == alone.draws == []
    probs = relation._forward(model, encs)[0]
    for enc, row in zip(encs, probs):
        assert np.allclose(row, cnn_forward(model, enc)[0], rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_forward_equals_explicit_row_copies(lengths, seed):
    """Gathering the batch's rows from the shared table gives, bit for bit,
    the input rows and probabilities of a reference whose word rows were
    copied out one at a time, with zero rows at the markers: what a marker
    position points at never reaches the model."""
    rng = Rng(seed, stream=23)
    d, max_len = 4, 6
    model = random_model(rng, d, max_len, 0.0, seed)
    table = random_table(rng, d)
    encs = [random_instance(rng, n, table, max_len) for n in lengths]
    copied = np.zeros((sum(lengths), d))
    reference, start = [], 0
    for enc in encs:
        for k, (row, marker) in enumerate(zip(enc.rows, enc.marker_ids)):
            if marker < 0:
                copied[start + k] = table[row]
        reference.append(replace(enc, rows=np.arange(start, start + len(enc.rows)),
                                 table=copied))
        start += len(enc.rows)
    p = model.params
    expected_rows = np.hstack([copied, p["pos_head"][np.concatenate([e.pos_head for e in encs])],
                               p["pos_tail"][np.concatenate([e.pos_tail for e in encs])]])
    markers = np.concatenate([enc.marker_ids for enc in encs])
    expected_rows[markers >= 0, :d] = p["markers"][markers[markers >= 0]]

    probs, cache = relation._forward(model, encs)
    assert np.array_equal(cache.work.x[:start], expected_rows)
    assert np.array_equal(probs, relation._forward(model, reference)[0])


def test_batch_of_two_tables_raises():
    rng = Rng(4, stream=19)
    d, max_len = 4, 6
    model = random_model(rng, d, max_len, 0.0, 4)
    first, second = random_table(rng, d), random_table(rng, d)
    encs = [random_instance(rng, 3, first, max_len), random_instance(rng, 2, first, max_len),
            random_instance(rng, 4, second, max_len)]
    with pytest.raises(ValueError, match="instance 2 of the batch references a"):
        relation._forward(model, encs)
    with pytest.raises(ValueError, match="other than instance 0's"):
        cnn_loss_and_grad(model, encs, [1.0] * 3, model.params.zeros_like())


def input_rows(model, enc):
    """Instance ``enc``'s input rows: token or marker vector, then the head
    and tail position vectors."""
    p, d = model.params, model.input_dim
    tokens = enc.table[enc.rows]
    markers = enc.marker_ids >= 0
    tokens[markers] = p["markers"][enc.marker_ids[markers]]
    return np.hstack([tokens, p["pos_head"][enc.pos_head], p["pos_tail"][enc.pos_tail]])


def oracle_loss_and_grad(model, encs, weights, rng=None):
    """Loss and gradient of a batch computed the long way: zero-padded
    input rows, pooling routed through ``np.argmax`` and
    ``put_along_axis``, and the full back-product onto every window column."""
    p, d = model.params, model.input_dim
    width = d + 2 * POS_DIM
    B, L = len(encs), max(len(enc.marker_ids) for enc in encs)
    x = np.zeros((B, L, width))
    real = np.zeros((B, L), dtype=bool)
    for b, enc in enumerate(encs):
        x[b, :len(enc.marker_ids)] = input_rows(model, enc)
        real[b, :len(enc.marker_ids)] = True
    zero = np.zeros((B, 1, width))
    windows = np.concatenate([np.concatenate([zero, x[:, :-1]], axis=1), x,
                              np.concatenate([x[:, 1:], zero], axis=1)], axis=2)
    relu = np.maximum(windows @ p["conv_W"].T + p["conv_b"], 0.0)
    relu[~real] = -1.0
    argmax = np.argmax(relu, axis=1)
    pooled = np.take_along_axis(relu, argmax[:, None], axis=1)[:, 0]
    scale = np.ones((B, N_FILTERS))
    if rng is not None and model.dropout > 0.0:
        scale = (rng.uniform((B, N_FILTERS)) >= model.dropout) / (1.0 - model.dropout)
    dropped = pooled * scale
    logits = dropped @ p["out_W"].T + p["out_b"]
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = [enc.label for enc in encs]
    weights = np.asarray(weights, dtype=np.float64)
    loss = -float(np.sum(weights * np.log(probs[np.arange(B), labels])))

    grad = model.params.zeros_like()
    dlogits = weights[:, None] * (probs - np.eye(len(RELATION_LABELS))[labels])
    grad["out_W"][:] = dlogits.T @ dropped
    grad["out_b"][:] = dlogits.sum(axis=0)
    dpooled = (dlogits @ p["out_W"]) * scale * (pooled > 0.0)
    grad["conv_b"][:] = dpooled.sum(axis=0)
    routed = np.zeros((B, L, N_FILTERS))
    np.put_along_axis(routed, argmax[:, None], dpooled[:, None], axis=1)
    grad["conv_W"][:] = routed.reshape(B * L, -1).T @ windows.reshape(B * L, -1)
    dwindows = routed @ p["conv_W"]
    dx = dwindows[:, :, width:2 * width].copy()
    dx[:, :-1] += dwindows[:, 1:, :width]
    dx[:, 1:] += dwindows[:, :-1, 2 * width:]
    for b, enc in enumerate(encs):
        rows = dx[b, :len(enc.marker_ids)]
        markers = enc.marker_ids >= 0
        np.add.at(grad["markers"], enc.marker_ids[markers], rows[markers, :d])
        np.add.at(grad["pos_head"], enc.pos_head, rows[:, d:d + POS_DIM])
        np.add.at(grad["pos_tail"], enc.pos_tail, rows[:, d + POS_DIM:])
    return loss, grad


def random_model(rng, d, max_len, dropout, seed):
    model = CnnReModel.init(d, CnnReConfig(max_len=max_len, dropout=dropout, seed=seed))
    model.params.data += rng.normal((model.params.size,), scale=0.3)
    return model


@settings(max_examples=30, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16), dropout=st.sampled_from([0.0, 0.3]))
def test_gradient_equals_argmax_routing_oracle(lengths, seed, dropout):
    """Routing to the rows equal to the pooled max, and back-products onto
    the position columns and the marker rows alone, give the gradient of
    argmax routing and the full back-product."""
    rng = Rng(seed, stream=19)
    d, max_len = 4, 6
    model = random_model(rng, d, max_len, dropout, seed)
    table = random_table(rng, d)
    encs = [random_instance(rng, n, table, max_len) for n in lengths]
    weights = rng.uniform(len(encs)) + 0.5
    grad = model.params.zeros_like()
    value = cnn_loss_and_grad(model, encs, weights, grad, train_mode=True,
                              rng=Rng(seed, stream=41))
    expected_value, expected = oracle_loss_and_grad(model, encs, weights,
                                                    rng=Rng(seed, stream=41))
    assert value == pytest.approx(expected_value, rel=1e-12)
    scale = max(1.0, float(np.max(np.abs(expected.data))))
    assert np.max(np.abs(grad.data - expected.data)) <= 1e-12 * scale


def test_tied_max_routes_to_each_instance_first_row():
    """With conv_W = 0 and conv_b > 0 every real row of every filter holds
    the pooled max; the conv_W gradient comes from each first window alone."""
    rng = Rng(8, stream=19)
    d, max_len = 4, 6
    model = random_model(rng, d, max_len, 0.0, 8)
    model.params["conv_W"][:] = 0.0
    model.params["conv_b"][:] = rng.uniform(N_FILTERS) + 0.1
    table = random_table(rng, d)
    encs = [random_instance(rng, n, table, max_len) for n in (3, 1, 5, 5)]
    weights = [1.0, 0.5, 2.0, 1.5]
    grad = model.params.zeros_like()
    cnn_loss_and_grad(model, encs, weights, grad)

    p = model.params
    logits = p["out_W"] @ p["conv_b"] + p["out_b"]  # every instance pools conv_b
    probs = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
    expected = np.zeros_like(p["conv_W"])
    for enc, weight in zip(encs, weights):
        dpooled = weight * (probs - np.eye(len(probs))[enc.label]) @ p["out_W"]
        rows = input_rows(model, enc)
        first_window = np.concatenate([np.zeros_like(rows[0]), rows[0],
                                       rows[1] if len(rows) > 1 else np.zeros_like(rows[0])])
        expected += np.outer(dpooled, first_window)
    assert np.allclose(grad["conv_W"], expected, rtol=1e-12, atol=1e-14)
    assert np.allclose(grad.data, oracle_loss_and_grad(model, encs, weights)[1].data,
                       rtol=1e-12, atol=1e-14)


def test_reused_workspace_gives_the_gradient_of_a_fresh_one():
    """A short batch run in a workspace a longer batch used before reads
    none of the long batch's rows (padding invariance)."""
    rng = Rng(6, stream=19)
    d, max_len = 4, 6
    model = random_model(rng, d, max_len, 0.3, 6)
    table = random_table(rng, d)
    long_batch = [random_instance(rng, n, table, max_len) for n in (9, 7, 9, 8)]
    short_batch = [random_instance(rng, n, table, max_len) for n in (2, 1, 3)]
    work = relation._Workspace(4 * 9, d)
    results = []
    for workspace in (work, None):
        if workspace is not None:
            cnn_loss_and_grad(model, long_batch, [1.0] * 4, model.params.zeros_like(),
                              train_mode=True, rng=Rng(1, stream=41), work=workspace)
        grad = model.params.zeros_like()
        value = cnn_loss_and_grad(model, short_batch, [1.0, 2.0, 0.5], grad, train_mode=True,
                                  rng=Rng(2, stream=41), work=workspace)
        results.append((value, grad.data))
    (value, grad), (fresh_value, fresh_grad) = results
    assert value == fresh_value
    assert np.array_equal(grad, fresh_grad)


def test_classify_pairs_matches_per_pair_forward(emb):
    doc = make_doc("d", ["vitamin", "c", "w1", "nausea", "w2", "sleep", "w3"])
    model = CnnReModel.init(emb.dim + 1, CnnReConfig(max_len=16, seed=2))
    model.params.data *= 20.0  # confident, varied predictions
    entities = [span(doc, "T1", "Supplement", 0, 2), span(doc, "T2", "Symptom", 3, 4),
                span(doc, "T3", "Symptom", 5, 6), span(doc, "T4", "Supplement", 6, 7),
                span(doc, "T5", "BodyOrgan", 4, 5)]
    expected = []
    for head in entities:
        for tail in entities:
            if head.etype == "Supplement" and tail.etype in EVENT_TYPES:
                probe = RelationInstance("d", head, tail, "NoRelation")
                probs, _ = cnn_forward(model, encode_instance(probe, doc, emb, 16))
                label = model.labels[int(np.argmax(probs))]
                if label != "NoRelation":
                    expected.append(RelationInstance("d", head, tail, label))
    assert expected
    assert classify_pairs(doc, entities, model, emb) == expected


# --------------------------------------------------------------- weights

def test_class_weights_inverse_frequency():
    w = class_weights([0, 0, 0, 1, 1, 2])
    total, present = 6, 3
    assert np.allclose(w, [total / (present * 3), total / (present * 2),
                           total / (present * 1)])
    assert np.allclose(class_weights([0, 1, 2]), 1.0)


def test_class_weights_missing_label_warns(caplog):
    with caplog.at_level("WARNING"):
        w = class_weights([0, 0, 1])
    assert w[2] == 1.0
    assert any("AdverseEvent" in r.message for r in caplog.records)


# --------------------------------------------------------------- training

def test_cnn_train_and_classify_pairs(emb):
    rng = Rng(5, stream=16)
    train = []
    doc_specs = []
    for i in range(30):
        # "vitamin <filler> nausea" -> AdverseEvent; with "sleep" -> Indication
        tail_word = "nausea" if i % 2 == 0 else "sleep"
        label = "AdverseEvent" if i % 2 == 0 else "Indication"
        words = ["vitamin", f"w{rng.randint(30)}", tail_word]
        doc = make_doc(f"d{i}", words)
        train.append(encode_instance(instance(doc, 0, 1, 2, 3, label=label),
                                     doc, emb, max_len=16))
        doc_specs.append((doc, label))
    cfg = CnnReConfig(max_len=16, epochs=12, batch_size=8, lr=1e-3,
                      dropout=0.0, seed=0)
    model = cnn_train(train, cfg)
    doc, expected = doc_specs[0]
    entities = [span(doc, "T1", "Supplement", 0, 1),
                span(doc, "T2", "Symptom", 2, 3)]
    preds = classify_pairs(doc, entities, model, emb)
    assert len(preds) == 1 and preds[0].label == expected
    assert preds[0].head.id == "T1" and preds[0].tail.id == "T2"


def test_cnn_train_same_seed_gives_identical_bundles(emb, tmp_path):
    """Two trainings with one seed, dev scoring included, save the same
    bytes; the dev split is scored in batches larger than a training batch."""
    rng = Rng(7, stream=16)
    encs = []
    for i in range(48):
        words = ["vitamin"] + [f"w{rng.randint(30)}" for _ in range(rng.randint(6))] + \
            ["nausea" if i % 3 else "sleep"]
        doc = make_doc(f"d{i}", words)
        label = ("NoRelation", "AdverseEvent", "Indication")[i % 3]
        encs.append(encode_instance(instance(doc, 0, 1, len(words) - 1, len(words), label=label),
                                    doc, emb, max_len=16))
    cfg = CnnReConfig(max_len=16, epochs=2, batch_size=8, lr=1e-3, seed=4)
    blobs = []
    for run in range(2):
        path = tmp_path / f"cnn{run}.json"
        save_model(cnn_train(encs[:12], cfg, dev=encs[12:]), path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_classify_pairs_zero_model_drops_all(emb):
    # all-zero weights -> uniform probs -> tie resolves to NoRelation -> dropped
    doc = make_doc("d", ["vitamin", "nausea"])
    model = CnnReModel.init(emb.dim + 1, CnnReConfig(max_len=16))
    model.params.data[:] = 0.0
    entities = [span(doc, "T1", "Supplement", 0, 1),
                span(doc, "T2", "Symptom", 1, 2)]
    assert classify_pairs(doc, entities, model, emb) == []


def test_classify_pairs_only_supplement_event_pairs(emb):
    doc = make_doc("d", ["vitamin", "c", "nausea"])
    model = CnnReModel.init(emb.dim + 1, CnnReConfig(max_len=16))
    entities = [span(doc, "T1", "Symptom", 2, 3),
                span(doc, "T2", "Symptom", 0, 1)]
    # no supplement head -> no candidate pairs at all
    assert classify_pairs(doc, entities, model, emb) == []


def test_cnn_train_rejects_empty():
    with pytest.raises(ValueError):
        cnn_train([])


def test_relation_label_order():
    assert RELATION_LABELS == ("NoRelation", "Indication", "AdverseEvent")
