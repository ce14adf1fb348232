import numpy as np
import pytest

from toxiclass import corpus as C
from toxiclass import embedding as E
from toxiclass.errors import DataError


@pytest.fixture
def vocab():
    return C.build_vocab(["apple banana apple cherry"])


class TestRandomTable:
    def test_shape_and_range(self):
        t = E.random_table(10, dim=4, seed=1)
        assert t.matrix.shape == (10, 4)
        assert np.all(np.abs(t.matrix) <= E.INIT_SCALE)

    def test_pad_row_zero(self):
        t = E.random_table(10, dim=4, seed=1)
        assert np.array_equal(t.matrix[C.PAD_ID], np.zeros(4))

    def test_seed_determinism(self):
        a = E.random_table(10, dim=4, seed=7)
        b = E.random_table(10, dim=4, seed=7)
        c = E.random_table(10, dim=4, seed=8)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_trainable_flag(self):
        assert E.random_table(4, dim=2).trainable is True
        assert E.random_table(4, dim=2, trainable=False).trainable is False


class TestFileTable:
    def test_write_load_round_trip(self, tmp_path, vocab):
        table = E.random_table(len(vocab), dim=3, seed=2)
        path = tmp_path / "emb.txt"
        # the load_table format, floats written by repr so that they read back exactly
        path.write_text(f"{table.vocab_size} {table.dim}\n" + "".join(
            token + " " + " ".join(repr(float(v)) for v in row) + "\n"
            for token, row in zip(vocab.id_to_token, table.matrix)), encoding="utf-8")
        loaded = E.load_table(path, vocab)
        assert np.array_equal(loaded.matrix, table.matrix)
        assert loaded.trainable is False

    def test_missing_token_falls_back_to_unk_row(self, tmp_path, vocab):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\n<unk> 0.5 0.5\napple 0.1 0.2\n")
        t = E.load_table(path, vocab)
        assert np.array_equal(t.matrix[vocab.get("apple")], [0.1, 0.2])
        assert np.array_equal(t.matrix[vocab.get("banana")], [0.5, 0.5])
        assert np.array_equal(t.matrix[C.PAD_ID], [0.0, 0.0])

    def test_dim_mismatch_rejected(self, tmp_path, vocab):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\napple 0.1 0.2\n")
        with pytest.raises(DataError):
            E.load_table(path, vocab)

    @pytest.mark.parametrize("header", ["0 0\n", "0 -2\n", "1 0\napple\n"])
    def test_header_dim_below_one_rejected(self, tmp_path, vocab, header):
        path = tmp_path / "emb.txt"
        path.write_text(header)
        with pytest.raises(DataError, match="below 1"):
            E.load_table(path, vocab)

    def test_row_count_mismatch_rejected(self, tmp_path, vocab):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\napple 0.1 0.2\n")
        with pytest.raises(DataError):
            E.load_table(path, vocab)

    def test_non_finite_rejected(self, tmp_path, vocab):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\napple nan 0.2\n")
        with pytest.raises(DataError):
            E.load_table(path, vocab)

