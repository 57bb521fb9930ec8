import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsae.embeddings import EmbeddingTable, load_static


def test_load_static_basic(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("hello 1.0 2.0 3.0\nWorld -1 0 0.5\n")
    table = load_static(path)
    assert table.dim == 3
    vec, oov = table.lookup("hello")
    assert not oov and np.array_equal(vec, [1.0, 2.0, 3.0])
    # case-folded lookup and storage
    vec, oov = table.lookup("WORLD")
    assert not oov and np.array_equal(vec, [-1.0, 0.0, 0.5])


def test_load_static_oov_zero_vector(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1 1\n")
    table = load_static(path)
    vec, oov = table.lookup("missing")
    assert oov and np.array_equal(vec, np.zeros(2))


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
    vec, _ = table.lookup("a")
    assert np.array_equal(vec, [1.0, 2.0])


def test_load_static_empty_file(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        load_static(path)


def test_embedding_table_shape_check():
    with pytest.raises(ValueError):
        EmbeddingTable(3, {"a": 0}, np.zeros((2, 3)))
