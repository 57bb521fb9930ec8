import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsae.embeddings import EmbeddingTable, TokenRows, load_static, shared_table
from dsae.synthetic import synthetic_embeddings


def test_load_static_basic(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("hello 1.0 2.0 3.0\nWorld -1 0 0.5\n")
    table = load_static(path)
    assert table.dim == 3
    # words are stored case-folded, in file order
    assert table.vocab == {"hello": 0, "world": 1}
    assert np.array_equal(table.row_matrix[:-1, :-1], [[1.0, 2.0, 3.0], [-1.0, 0.0, 0.5]])
    assert np.array_equal(table.row_matrix[table.ids(["hello", "WORLD"])],
                          [[1.0, 2.0, 3.0, 0.0], [-1.0, 0.0, 0.5, 0.0]])
    assert table.duplicates == 0


def test_load_static_oov_zero_vector(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1 1\n")
    table = load_static(path)
    assert "missing" not in table.vocab
    assert np.array_equal(table.row_matrix[table.ids(["missing"])], [[0.0, 0.0, 1.0]])


def test_load_static_inconsistent_dim_names_line(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1 2\nb 1 2 3\n")
    with pytest.raises(ValueError, match=":2:"):
        load_static(path)


_VALUE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_BAD_VALUE = st.one_of(st.sampled_from(["nan", "-inf", "Infinity", "1e999"]),
                       st.text(alphabet="abcx,;_", min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(good=st.lists(st.lists(_VALUE, min_size=2, max_size=2), max_size=3),
       bad=_BAD_VALUE, column=st.integers(0, 1))
def test_load_static_names_file_and_line_of_bad_value(tmp_path_factory, good, bad,
                                                      column):
    path = tmp_path_factory.mktemp("vecs") / "vecs.txt"
    lines = [f"w{k} " + " ".join(row) for k, row in enumerate(good)]
    values = ["0.5", "0.5"]
    values[column] = bad
    lines.append("bad " + " ".join(values))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{len(lines)}: ")
                       + ".*" + re.escape(repr(lines[-1]))):
        load_static(path)


def test_load_static_duplicates_first_wins(tmp_path, caplog):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1 2\nA 9 9\nb 3 4\n")
    with caplog.at_level("WARNING"):
        table = load_static(path)
    assert table.duplicates == 1
    assert table.vocab == {"a": 0, "b": 1}
    assert np.array_equal(table.row_matrix[table.vocab["a"], :-1], [1.0, 2.0])
    assert np.array_equal(table.row_matrix[table.ids(["A"])], [[1.0, 2.0, 0.0]])


def test_load_static_empty_file(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        load_static(path)


def test_embedding_table_shape_check():
    with pytest.raises(ValueError):
        EmbeddingTable(3, {"a": 0}, np.zeros((2, 3)))


def test_every_table_counts_duplicates():
    """A table not read from a file has skipped no repeated word."""
    assert EmbeddingTable(2, {"a": 0}, np.ones((1, 2))).duplicates == 0
    assert synthetic_embeddings(dim=4, seed=1).duplicates == 0


def test_shared_table_names_the_input_that_reads_another():
    first, second = EmbeddingTable(2, {"a": 0}, np.ones((1, 2))), synthetic_embeddings(dim=2)
    inputs = [first.tokens(["a"]), first.tokens(["b", "a"])]
    assert shared_table(inputs) is first.row_matrix
    inputs.append(second.tokens(["a"]))
    with pytest.raises(ValueError, match=r"instance 2 of the batch references a \(\d+, 3\) "
                                         r"embedding table other than instance 0's \(2, 3\) one"):
        shared_table(inputs)


def test_rows_are_vectors_then_oov_flag():
    matrix = np.arange(6.0).reshape(2, 3) + 1
    table = EmbeddingTable(3, {"zinc": 0, "fish": 1}, matrix)
    words = ["Zinc", "unknown", "FISH", "zinc", "Fish", ""]
    rows = table.row_matrix[table.ids(words)]
    assert rows.shape == (len(words), 4)
    for row, word in zip(rows, words):
        idx = table.vocab.get(word.lower())
        if idx is None:
            assert np.array_equal(row, [0.0, 0.0, 0.0, 1.0])
        else:
            assert np.array_equal(row, np.append(matrix[idx], 0.0))
    assert list(table.ids(words)) == [0, 2, 1, 0, 1, 2]
    tokens = table.tokens(words)
    assert isinstance(tokens, TokenRows) and tokens.table is table.row_matrix
    assert np.array_equal(tokens.rows, table.ids(words)) and len(tokens) == len(words)
    assert table.row_matrix[table.ids([])].shape == (0, 4)
    assert table.ids([]).shape == (0,)
    with pytest.raises(ValueError, match="read-only"):
        table.row_matrix[0, 0] = 1.0
