import numpy as np
import pytest

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
