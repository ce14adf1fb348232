import contextlib
import dataclasses
import json
import re
import unicodedata

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATASET_BYTES
from toxiclass import corpus as C
from toxiclass.errors import ConfigError, DataError, IngestError, ToxiclassError


class TestPreprocess:
    def test_strips_urls(self):
        out = C.preprocess("see https://a.example/x?y=1 and www.b.example/page now")
        assert out == "see and now"

    def test_strips_punctuation(self):
        assert C.preprocess("stop, right there!!") == "stop right there"

    def test_strips_emoticons(self):
        assert C.preprocess("fine \U0001F600 day ❤") == "fine day"

    def test_keeps_bengali_zwj(self):
        # zero-width joiners are part of the script, not decoration
        text = "ক্‍য"
        assert C.preprocess(text) == text

    def test_stopwords_removed_after_char_filtering(self):
        cfg = C.PreprocessConfig(stopwords=frozenset({"the", "a"}))
        assert C.preprocess("The the a big, dog!", cfg) == "The big dog"

    def test_whitespace_collapses(self):
        assert C.preprocess("a   b\t\nc") == "a b c"

    def test_flags_can_disable_each_step(self):
        cfg = C.PreprocessConfig(remove_urls=False, remove_punctuation=False,
                                 remove_emoticons=False)
        assert C.preprocess("keep: www.x.y !", cfg) == "keep: www.x.y !"

    def test_empty_result_allowed(self):
        assert C.preprocess("!!! ???") == ""

    @settings(max_examples=200)
    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = C.preprocess(text)
        assert C.preprocess(once) == once

    @settings(max_examples=100)
    @given(st.text(max_size=80))
    def test_output_single_spaced(self, text):
        out = C.preprocess(text)
        assert "  " not in out and out == out.strip()



@pytest.fixture(scope="module")
def code_points():
    """Every code point but the surrogates, with its punctuation flag."""
    cps = np.array([c for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF])
    punct = np.array([unicodedata.category(chr(c)).startswith("P") for c in cps])
    return cps, punct


def ref_char_filter(cps, punct, cfg):
    """The per-character rule of preprocess before its decisions were
    cached: drop punctuation (category P*) and code points in an emoticon
    range, each when its flag is on. Returns the kept mask."""
    drop = np.zeros(len(cps), dtype=bool)
    if cfg.remove_punctuation:
        drop |= punct
    if cfg.remove_emoticons:
        for lo, hi in cfg.emoticon_ranges:
            drop |= (cps >= lo) & (cps <= hi)
    return ~drop


class TestArbitraryText:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(text=st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])),
                        max_size=80),
           stopwords=st.frozensets(st.text(max_size=3), max_size=4),
           flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           max_len=st.integers(-1, 12))
    def test_only_toxiclass_errors_escape(self, text, stopwords, flags, max_len):
        # any str, lone surrogates included
        cfg = C.PreprocessConfig(stopwords, *flags)
        vocab = C.build_vocab([text])
        with contextlib.suppress(ToxiclassError):
            C.encode([C.preprocess(text, cfg)], vocab, max_len)
        with contextlib.suppress(ToxiclassError):
            C.encode([text], vocab, max_len)


class TestPreprocessCharFilter:
    """Cached keep/drop decisions give the output of the per-character rule."""

    CHUNK = 4096
    NO_URLS = C.PreprocessConfig(remove_urls=False)

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        C._char_filter.cache_clear()
        yield
        C._char_filter.cache_clear()

    def check(self, cps, punct, cfg):
        keep = ref_char_filter(cps, punct, cfg)
        for start in range(0, len(cps), self.CHUNK):
            part = slice(start, start + self.CHUNK)
            text = "".join(map(chr, cps[part]))
            kept = "".join(map(chr, cps[part][keep[part]]))
            assert C.preprocess(text, cfg) == " ".join(kept.split()), start

    def test_every_code_point(self, code_points):
        self.check(*code_points, self.NO_URLS)

    @pytest.mark.parametrize("change", [
        {"remove_punctuation": False},
        {"remove_emoticons": False},
        {"remove_punctuation": False, "remove_emoticons": False},
        {"emoticon_ranges": ((0x41, 0x5A), (0x980, 0x9FF), (0x1F600, 0x1F600))},
    ])
    def test_flags_and_ranges(self, code_points, change):
        cps, punct = code_points
        # every code point of the scripts and emoticon blocks the config
        # touches, and a stride through the rest
        sample = (cps < 0x3000) | ((cps >= 0x1F000) & (cps <= 0x1FAFF)) | (cps % 17 == 0)
        self.check(cps[sample], punct[sample], dataclasses.replace(self.NO_URLS, **change))

    def test_decisions_are_per_config(self):
        text = "a\U0001F600b, c"
        assert C.preprocess(text) == "ab c"
        plain = C.PreprocessConfig(remove_punctuation=False, remove_emoticons=False)
        assert C.preprocess(text, plain) == text
        assert C.preprocess(text) == "ab c"

class TestVocabulary:
    def test_reserved_ids(self):
        v = C.build_vocab(["b a a"])
        assert v.id_to_token[C.PAD_ID] == C.PAD_TOKEN
        assert v.id_to_token[C.UNK_ID] == C.UNK_TOKEN
        assert v.get("a") == 2  # most frequent content token comes first
        assert v.get("b") == 3

    def test_frequency_then_lexicographic(self):
        v = C.build_vocab(["c b b a a"])
        assert v.id_to_token[2:] == ["a", "b", "c"]

    def test_unknown_maps_to_unk(self):
        v = C.build_vocab(["x"])
        assert v.get("never-seen") == C.UNK_ID

    def test_max_size_includes_reserved(self):
        v = C.build_vocab(["a b c d"], max_size=4)
        assert len(v) == 4 and v.id_to_token[2:] == ["a", "b"]

    def test_min_freq(self):
        v = C.build_vocab(["a a b"], min_freq=2)
        assert "b" not in v and "a" in v

    def test_max_size_too_small(self):
        with pytest.raises(ConfigError):
            C.build_vocab(["a"], max_size=1)

    def test_save_load_round_trip(self, tmp_path):
        v = C.build_vocab(["gamma beta beta alpha alpha alpha"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        again = C.Vocabulary.load(path)
        assert again.id_to_token == v.id_to_token
        assert again.content_hash() == v.content_hash()

    def test_hash_tracks_content(self):
        assert (C.build_vocab(["a b"]).content_hash()
                != C.build_vocab(["a c"]).content_hash())

    @pytest.mark.parametrize("content", [b"<pad>\n<unk>\n\xffa\n", b"\x80"])
    def test_load_rejects_non_utf8(self, tmp_path, content):
        path = tmp_path / "vocab.txt"
        path.write_bytes(content)
        with pytest.raises(DataError, match="cannot read vocabulary"):
            C.Vocabulary.load(path)

    def test_load_rejects_unreadable(self, tmp_path):
        with pytest.raises(DataError, match="cannot read vocabulary"):
            C.Vocabulary.load(tmp_path)  # a directory

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=st.one_of(st.binary(max_size=40),
                          st.binary(max_size=40).map(lambda b: b"<pad>\n<unk>\n" + b),
                          st.lists(st.sampled_from([b"a", b"<pad>", b"\r", b"\n", b"\xc3",
                                                    b"\xa9", b"\x00", b" "]),
                                   max_size=12).map(lambda p: b"<pad>\n<unk>\n" + b"".join(p))))
    def test_load_of_any_bytes_fails_only_as_toxiclass_error(self, tmp_path, body):
        path = tmp_path / "vocab.txt"
        path.write_bytes(body)
        with contextlib.suppress(ToxiclassError):
            C.Vocabulary.load(path)

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\n")
        with pytest.raises(DataError):
            C.Vocabulary.load(path)

    def test_reserved_tokens_in_text_are_skipped(self):
        text = C.preprocess("a <pad> b <unk> <pad> a")
        assert text == "a <pad> b <unk> <pad> a"  # < and > are not punctuation
        v = C.build_vocab([text])
        assert v.id_to_token == [C.PAD_TOKEN, C.UNK_TOKEN, "a", "b"]

    def test_pad_text_is_out_of_vocabulary(self):
        v = C.build_vocab(["a"])
        assert C.PAD_TOKEN not in v and v.get(C.PAD_TOKEN) == C.UNK_ID
        assert C.UNK_TOKEN in v and v.get(C.UNK_TOKEN) == C.UNK_ID

    @pytest.mark.parametrize("tokens, line, token", [
        (["a", "b", "a"], 5, "a"), (["a", C.PAD_TOKEN], 4, C.PAD_TOKEN),
        (["", ""], 4, "")])
    def test_repeated_token(self, tmp_path, tokens, line, token):
        message = f"vocabulary line {line} repeats token {token!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            C.Vocabulary(tokens)
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join([C.PAD_TOKEN, C.UNK_TOKEN, *tokens, ""]), encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            C.Vocabulary.load(path)


def tokenize(text, vocab, max_len):
    """The row encode gives ``text``, written out: split on whitespace, keep
    the first ``max_len`` tokens, read each as its vocabulary id (the
    reserved ``<pad>`` and ``<unk>`` and unknown tokens as UNK_ID), then pad
    with PAD_ID to ``max_len``."""
    known = {t: i for i, t in enumerate(vocab.id_to_token) if i > C.UNK_ID}
    row = [known.get(t, C.UNK_ID) for t in text.split()[:max_len]]
    return row + [C.PAD_ID] * (max_len - len(row))


# Unicode whitespace that str.split separates tokens at, ASCII or not
SEPARATORS = (" ", "\t", "\n", "\x1f", "\x85", "\u00a0", "\u2003", "\u2028", "\u3000")
WORDS = ("dog", "cat", "bird", "zebra", "<pad>", "<unk>", "\u0995\u09c1\u0995\u09c1\u09b0")


def joined(tokens):
    """Strategy: the text of ``tokens`` with a run of separators after each
    and possibly a run before the first."""
    run = st.text(st.sampled_from(SEPARATORS), min_size=1, max_size=3)
    return st.tuples(st.text(st.sampled_from(SEPARATORS), max_size=2),
                     st.lists(run, min_size=len(tokens), max_size=len(tokens))).map(
        lambda parts: parts[0] + "".join(t + sep for t, sep in zip(tokens, parts[1])))


class TestTokenize:
    """The rule encode applies to each text, seen on one text's row."""

    @pytest.fixture
    def vocab(self):
        return C.build_vocab(["dog cat dog bird"])

    @staticmethod
    def row(text, vocab, max_len):
        return C.encode([text], vocab, max_len)[0].tolist()

    def test_pads_to_max_len(self, vocab):
        # ranked: dog (freq 2), then bird/cat alphabetically
        assert self.row("dog cat", vocab, 5) == [2, 4, 0, 0, 0]

    def test_head_truncation(self, vocab):
        assert self.row("dog cat bird dog", vocab, 2) == [vocab.get("dog"), vocab.get("cat")]

    def test_unknown_token(self, vocab):
        assert self.row("zebra", vocab, 3)[0] == C.UNK_ID

    def test_reserved_tokens_map_to_unk(self, vocab):
        assert self.row("<pad> dog <unk>", vocab, 4) == [C.UNK_ID, vocab.get("dog"),
                                                         C.UNK_ID, C.PAD_ID]

    def test_empty_text(self, vocab):
        assert self.row("", vocab, 3) == [C.PAD_ID] * 3

    def test_bad_max_len(self, vocab):
        with pytest.raises(ConfigError, match="max_len must be >= 1, got -1"):
            C.encode(["dog"], vocab, max_len=-1)

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(["dog", "cat", "bird", "zzz"]), max_size=12))
    def test_mask_marks_exactly_true_length(self, tokens):
        vocab = C.build_vocab(["dog cat bird"])
        row = np.array(self.row(" ".join(tokens), vocab, 8))
        n = min(len(tokens), 8)
        assert (row[:n] != C.PAD_ID).all()
        assert (row[n:] == C.PAD_ID).all()


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return C.build_vocab(["dog cat dog bird"])

    def test_rows_are_tokenize_rows(self, vocab):
        texts = ["dog cat", "", "bird dog cat zebra dog cat", "<pad> cat"]
        ids = C.encode(texts, vocab, max_len=4)
        assert ids.shape == (4, 4) and ids.dtype == np.int64
        assert ids.tolist() == [tokenize(text, vocab, 4) for text in texts]

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_equals_reference(self, data):
        vocab = C.build_vocab([" ".join(data.draw(st.lists(st.sampled_from(WORDS)),
                                                  label="corpus"))])
        token_lists = data.draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=12),
                                         max_size=5), label="tokens")
        texts = [data.draw(joined(tokens), label="text") for tokens in token_lists]
        assert [text.split() for text in texts] == token_lists
        longest = max(map(len, token_lists), default=0)
        max_len = data.draw(st.integers(1, longest + 2), label="max_len")
        assert C.encode(texts, vocab, max_len).tolist() \
            == [tokenize(text, vocab, max_len) for text in texts]

    def test_no_texts(self, vocab):
        ids = C.encode([], vocab, max_len=7)
        assert ids.shape == (0, 7) and ids.dtype == np.int64

    @pytest.mark.parametrize("texts", [[], ["dog"]], ids=["empty", "one"])
    def test_bad_max_len(self, vocab, texts):
        with pytest.raises(ConfigError, match="max_len"):
            C.encode(texts, vocab, max_len=0)


class TestDocumentValidation:
    def test_consistent_document_passes(self):
        C.Document("d1", "x", toxic=True, labels=(1, 0, 0, 0, 0, 0))
        C.Document("d2", "x", toxic=False, labels=(0, 0, 0, 0, 0, 0))

    def test_toxic_without_labels_rejected(self):
        with pytest.raises(DataError, match="no label is set"):
            C.Document("d", "x", toxic=True, labels=(0,) * 6)

    def test_labels_without_toxic_rejected(self):
        with pytest.raises(DataError, match="labels are not all zero"):
            C.Document("d", "x", toxic=False, labels=(0, 1, 0, 0, 0, 0))

    def test_wrong_arity_rejected(self):
        with pytest.raises(DataError, match="length 2"):
            C.Document("d", "x", toxic=True, labels=(1, 0))


def _write_csv(path, rows, header="id,text,toxic,vulgar,hate,religious,threat,troll,insult"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


class TestReadLines:
    BREAKS = "a\r\nb\rc\x0cd\x85e\u2028f\u2029g\x1ch\n\ni"

    @pytest.mark.parametrize("newline", [None, ""])
    def test_splits_as_open_does(self, tmp_path, newline):
        path = tmp_path / "f.txt"
        path.write_bytes(self.BREAKS.encode("utf-8"))
        with open(path, encoding="utf-8", newline=newline) as fh:
            expected = list(enumerate(fh, start=1))
        assert list(C.read_lines(path, "file", newline=newline)) == expected
        # only \r, \n and \r\n end a line
        assert len(expected) == 5

    @pytest.mark.parametrize("body, line", [
        (b"\xff", 1),
        (b"a\nb\n\xff\n", 3),
        (b"a\r\nb\r\nc\xe9\r\n", 3),
        (b"a\rb\rc\r\xc3", 4),
        ("\u00e9\u2028\x85\n".encode() + b"x\x80", 2),
        (b"ok\n" * 5000 + b"\xed\xa0\x80\n", 5001),  # past the first decoded chunk
    ])
    def test_not_utf8_names_the_line(self, tmp_path, body, line):
        path = tmp_path / "f.txt"
        path.write_bytes(body)
        with pytest.raises(ConfigError,
                           match=re.escape(f"things {path} is not UTF-8 at line {line} ")):
            list(C.read_lines(path, "things", ConfigError))

    def test_missing_and_directory(self, tmp_path):
        for path in (tmp_path / "absent", tmp_path):
            with pytest.raises(DataError,
                               match=re.escape(f"cannot read things {path}: ")) as err:
                list(C.read_lines(path, "things", hint="run it"))
            assert str(err.value).endswith(" (run it)")

    def test_happy_path_streams(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\n" + b"\xff")
        lines = C.read_lines(path, "things")
        with pytest.raises(DataError):
            next(lines)  # the one decoded chunk holds the bad byte
        path.write_bytes(b"a\n" * 100_000 + b"\xff")
        lines = C.read_lines(path, "things")
        assert next(lines) == (1, "a\n")  # read before the bad byte is reached
        with pytest.raises(DataError, match="line 100001"):
            list(lines)


CSV_SPEC = C.FormatSpec(kind="csv", text_field="text", toxic_field="toxic",
                        label_fields=C.LABELS, id_field="id")


class TestIngest:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, ["a,hello world,1,1,0,0,0,0,0", "b,all clear,0,0,0,0,0,0,0"])
        docs = C.ingest(path, CSV_SPEC)
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[0].toxic is True and docs[0].labels == (1, 0, 0, 0, 0, 0)
        assert docs[1].toxic is False

    def test_jsonl(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [{"text": "hi", "toxic": 1, **{k: int(k == "hate") for k in C.LABELS}}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        spec = C.FormatSpec(kind="jsonl", toxic_field="toxic", label_fields=C.LABELS)
        docs = C.ingest(path, spec)
        assert docs[0].labels == (0, 1, 0, 0, 0, 0)

    def test_toxic_derived_from_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("text,vulgar,hate,religious,threat,troll,insult\n"
                        "bad stuff,0,0,0,1,0,0\nfine,0,0,0,0,0,0\n")
        spec = C.FormatSpec(kind="csv", label_fields=C.LABELS)
        docs = C.ingest(path, spec)
        assert docs[0].toxic is True and docs[1].toxic is False

    def test_all_bad_rows_reported(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, [
            "a,ok,1,1,0,0,0,0,0",
            "b,bad flag,2,0,0,0,0,0,0",       # non-boolean toxic
            "c,mismatch,1,0,0,0,0,0,0",        # toxic but no labels
        ])
        with pytest.raises(IngestError) as err:
            C.ingest(path, CSV_SPEC)
        assert len(err.value.rows) == 2
        assert {r for r, _ in err.value.rows} == {3, 4}

    def test_non_boolean_flag_names_its_row_once(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, ["a,unsure,maybe,0,0,0,0,0,0"])
        with pytest.raises(IngestError) as err:
            C.ingest(path, CSV_SPEC)
        assert err.value.rows == [(2, "field 'toxic' has non-boolean value 'maybe'")]
        assert str(err.value).count("row 2:") == 1

    def test_missing_flag_field_is_bad_row(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"text": "hi", "vulgar": 1}) + "\n")
        with pytest.raises(IngestError) as err:
            C.ingest(path, C.FormatSpec(kind="jsonl", label_fields=C.LABELS))
        assert err.value.rows == [(1, "missing field 'hate'")]

    def test_bad_row_still_claims_its_id(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, ["a,unsure,maybe,0,0,0,0,0,0", "a,fine,0,0,0,0,0,0,0"])
        with pytest.raises(IngestError) as err:
            C.ingest(path, CSV_SPEC)
        assert [r for r, _ in err.value.rows] == [2, 3]
        assert err.value.rows[1][1] == "id 'a' is empty, repeated or holds a line break"

    def test_jsonl_boolean_flags(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [{"text": "hi", "toxic": True, **{k: k == "threat" for k in C.LABELS}},
                {"text": "ok", "toxic": False, **{k: False for k in C.LABELS}}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        spec = C.FormatSpec(kind="jsonl", toxic_field="toxic", label_fields=C.LABELS)
        docs = C.ingest(path, spec)
        assert [d.toxic for d in docs] == [True, False]
        assert [d.labels for d in docs] == [(0, 0, 0, 1, 0, 0), (0,) * 6]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            C.ingest(tmp_path / "nope.csv", CSV_SPEC)

    def test_ids_kept_verbatim(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, [" 1,x,0,0,0,0,0,0,0", "a\u2028b,y,0,0,0,0,0,0,0"])
        assert [d.id for d in C.ingest(path, CSV_SPEC)] == [" 1", "a\u2028b"]

    @pytest.mark.parametrize("ids, bad", [
        (["1", "1"], [3]),
        (["1", "2", "1", "1"], [4, 5]),
        (["", "2"], [2]),
        (['"a\nb"', '"c\rd"', "e"], [2, 3]),
    ])
    def test_empty_repeated_or_multiline_ids_are_bad_rows(self, tmp_path, ids, bad):
        path = tmp_path / "d.csv"
        _write_csv(path, [f"{i},t,0,0,0,0,0,0,0" for i in ids])
        with pytest.raises(IngestError) as err:
            C.ingest(path, CSV_SPEC)
        assert [r for r, _ in err.value.rows] == bad
        assert all("id" in msg for _, msg in err.value.rows)

    @pytest.mark.parametrize("first_id, row, message", [
        ("None", {"id": None}, "id field 'id' is null"),
        ("2", {}, "missing id field 'id'"),
    ], ids=["null", "missing"])
    def test_null_or_missing_jsonl_id_is_bad_row(self, tmp_path, first_id, row, message):
        """Neither becomes an id ('None', or the line number) that could
        collide with a real one."""
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"id": first_id, "text": "a", "toxic": 1}) + "\n"
                        + json.dumps({**row, "text": "b", "toxic": 0}) + "\n")
        with pytest.raises(IngestError) as err:
            C.ingest(path, C.FormatSpec(kind="jsonl", toxic_field="toxic", id_field="id"))
        assert err.value.rows == [(2, message)]

    @pytest.mark.parametrize("name, body", [
        ("d.csv", b"id,text,toxic\na,caf\xe9,1\n"),
        ("d.jsonl", b'{"id": "a", "text": "ok", "toxic": 0}\n{"text": "\xff"}\n'),
    ])
    def test_not_utf8_is_data_error(self, tmp_path, name, body):
        path = tmp_path / name
        path.write_bytes(body)
        spec = C.FormatSpec(kind=name.split(".")[1], toxic_field="toxic", id_field="id")
        with pytest.raises(DataError, match=f"dataset .*{name} is not UTF-8"):
            C.ingest(path, spec)

    @pytest.mark.parametrize("line", [b"[]", b"[1, 2]", b'"text"', b"3", b"null", b"true"])
    def test_non_object_jsonl_line_is_bad_row(self, tmp_path, line):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"text": "hi", "toxic": 0}\n' + line + b"\n")
        with pytest.raises(IngestError, match="row 2: not a JSON object") as err:
            C.ingest(path, C.FormatSpec(kind="jsonl", toxic_field="toxic"))
        assert err.value.rows == [(2, "not a JSON object")]

    def test_deeply_nested_jsonl_line_is_bad_row(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"text": "hi", "toxic": 0}\n' + b"[" * 100_000 + b"\n")
        with pytest.raises(IngestError, match="row 2: unparseable row"):
            C.ingest(path, C.FormatSpec(kind="jsonl", toxic_field="toxic"))

    def test_oversized_csv_field_is_data_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"text,toxic\n" + b"x" * 200_000 + b",1\n")
        with pytest.raises(DataError, match="cannot read dataset"):
            C.ingest(path, C.FormatSpec(kind="csv", toxic_field="toxic"))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["csv", "jsonl"]), body=DATASET_BYTES)
    def test_ingest_of_any_bytes_fails_only_as_toxiclass_error(self, tmp_path, kind, body):
        path = tmp_path / f"d.{kind}"
        path.write_bytes(body)
        for spec in (C.FormatSpec(kind=kind, toxic_field="toxic", id_field="id"),
                     C.FormatSpec(kind=kind, label_fields=C.LABELS)):
            with contextlib.suppress(ToxiclassError):
                C.stats(C.ingest(path, spec))

    def test_format_spec_needs_some_gold(self):
        with pytest.raises(ConfigError):
            C.FormatSpec(kind="csv", toxic_field=None, label_fields=None)

    def test_format_spec_label_arity(self):
        with pytest.raises(ConfigError):
            C.FormatSpec(kind="csv", label_fields=("a", "b"))


class TestStats:
    def test_counts(self):
        docs = [
            C.Document("1", "x", toxic=True, labels=(1, 1, 0, 0, 0, 0)),
            C.Document("2", "x", toxic=True, labels=(0, 0, 0, 0, 0, 1)),
            C.Document("3", "x", toxic=False, labels=(0,) * 6),
        ]
        s = C.stats(docs)
        assert s["total"] == 3 and s["toxic"] == 2 and s["non_toxic"] == 1
        assert s["per_class"]["vulgar"] == 1 and s["per_class"]["insult"] == 1
        assert s["cardinality"] == {"0": 1, "1": 1, "2": 1}

    def test_accepts_generator(self):
        docs = (C.Document(str(i), "x", toxic=False, labels=(0,) * 6)
                for i in range(4))
        assert C.stats(docs)["total"] == 4


def _toy_corpus(n=600, seed=5):
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        labels = tuple(int(rng.random() < p)
                       for p in (0.15, 0.12, 0.08, 0.09, 0.10, 0.17))
        docs.append(C.Document(f"d{i}", f"text {i}", toxic=any(labels),
                               labels=labels))
    return docs


class TestStratifiedSplit:
    def test_fold_sizes(self):
        docs = _toy_corpus()
        spec = C.SplitSpec(seed=3)
        train, val, test = C.stratified_split(docs, spec)
        assert abs(len(train) - 360) <= 1
        assert abs(len(val) - 144) <= 1
        assert abs(len(test) - 96) <= 1
        assert len(train) + len(val) + len(test) == 600

    def test_partition_and_order_preserved(self):
        docs = _toy_corpus(200)
        train, val, test = C.stratified_split(docs, C.SplitSpec(seed=1))
        ids = sorted(d.id for fold in (train, val, test) for d in fold)
        assert ids == sorted(d.id for d in docs)
        pos = {d.id: i for i, d in enumerate(docs)}
        for fold in (train, val, test):
            order = [pos[d.id] for d in fold]
            assert order == sorted(order)

    def test_label_balance(self):
        docs = _toy_corpus()
        train, val, test = C.stratified_split(docs, C.SplitSpec(seed=3))
        totals = np.array([d.labels for d in docs]).sum(axis=0)
        for fold, frac in ((train, 0.60), (val, 0.24), (test, 0.16)):
            counts = np.array([d.labels for d in fold]).sum(axis=0)
            assert np.all(np.abs(counts - frac * totals) <= 2), (counts, frac * totals)

    def test_deterministic(self):
        docs = _toy_corpus(150)
        a = C.stratified_split(docs, C.SplitSpec(seed=9))
        b = C.stratified_split(docs, C.SplitSpec(seed=9))
        assert [[d.id for d in f] for f in a] == [[d.id for d in f] for f in b]
        c = C.stratified_split(docs, C.SplitSpec(seed=10))
        assert [[d.id for d in f] for f in a] != [[d.id for d in f] for f in c]

    def test_binary_only_documents_split_on_toxic(self):
        docs = [C.Document(f"d{i}", "x", toxic=i % 3 == 0) for i in range(100)]
        train, val, test = C.stratified_split(docs, C.SplitSpec(seed=0))
        n_toxic = sum(d.toxic for d in docs)
        got = sum(d.toxic for d in train)
        assert abs(got - 0.6 * n_toxic) <= 2

    def test_equal_fractions_break_ties_by_draw(self):
        """Equal fractions tie every fold on demand and capacity, so the
        seeded draw decides; these are the folds it gives."""
        docs = [C.Document(f"d{i}", "x", toxic=i % 4 != 3,
                           labels=tuple(int(i % 4 != 3 and j == i % 2) for j in range(6)))
                for i in range(12)]
        third = 1 / 3
        folds = C.stratified_split(docs, C.SplitSpec(third, third, third, seed=0))
        assert [[d.id for d in fold] for fold in folds] == [
            ["d2", "d3", "d6", "d9"], ["d0", "d5", "d7", "d8"], ["d1", "d4", "d10", "d11"]]

    def test_bad_fractions(self):
        with pytest.raises(ConfigError, match="sum to"):
            C.SplitSpec(train_fraction=0.7, val_fraction=0.2, test_fraction=0.2)
        with pytest.raises(ConfigError, match="outside"):
            C.SplitSpec(train_fraction=0.0, val_fraction=0.5, test_fraction=0.5)

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            C.stratified_split([], C.SplitSpec())


def _negative_seed_sites():
    """Each public entry point that draws from a seeded generator, called
    with seed -1."""
    from conftest import desk_binary_config, desk_multilabel_config
    from toxiclass import explain as EX
    from toxiclass import models as M
    from toxiclass.embedding import random_table

    table = random_table(12, 4, seed=0)
    ids, targets = np.ones((2, 6), dtype=np.int64), np.ones((2, 1))
    return {
        "seeded_rng": lambda: C.seeded_rng(-1),
        "random_table": lambda: random_table(12, 4, seed=-1),
        "BinaryModel": lambda: M.BinaryModel(desk_binary_config(), table, seed=-1),
        "MultiLabelModel": lambda: M.MultiLabelModel(desk_multilabel_config(), table,
                                                     seq_len=40, seed=-1),
        "train": lambda: M.train(M.BinaryModel(desk_binary_config(), table),
                                 (ids, targets), (ids, targets), M.TrainingConfig(seed=-1)),
        "stratified_split": lambda: C.stratified_split(
            [C.Document(id=str(i), text="a", toxic=bool(i % 2)) for i in range(6)],
            C.SplitSpec(seed=-1)),
        "sample_perturbations": lambda: EX.sample_perturbations(3, 5, seed=-1),
    }


class TestSeededRng:
    @pytest.mark.parametrize("seed", [0, 7, 2**63])
    def test_stream_is_pcg64_from_the_seed(self, seed):
        want = np.random.default_rng(np.random.PCG64(seed))
        assert np.array_equal(C.seeded_rng(seed).random(8), want.random(8))

    @pytest.mark.parametrize("site", sorted(_negative_seed_sites()))
    def test_negative_seed_is_a_config_error(self, site):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            _negative_seed_sites()[site]()
