import logging

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import BOM, FIELDS, TOKENS
from lexsynth.corpus_io import (
    Format,
    LabeledCorpus,
    LabeledSentence,
    Schema,
    TwoColRows,
    read_labeled,
    read_mono,
    read_parallel,
    sniff_format,
    write_labeled,
    write_mono,
    write_parallel,
)
from lexsynth.errors import DataFormatError, ValidationError
from lexsynth.lexicon import load_lexicon


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestMono:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "the house\n", "m.txt")
        assert read_mono(path) == [["the", "house"]]

    def test_empty_file(self, tmp_path):
        assert read_mono(write(tmp_path, "", "m.txt")) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "a b\n\n  \nc\n", "m.txt")
        assert read_mono(path) == [["a", "b"], ["c"]]

    def test_limit(self, tmp_path):
        text = "".join(f"tok {i}\n" for i in range(2001))
        path = write(tmp_path, text, "m.txt")
        assert len(read_mono(path, limit=2000)) == 2000
        assert len(read_mono(path)) == 2001

    def test_round_trip_bytes(self, tmp_path):
        original = write(tmp_path, "a b\nc d e\n", "m.txt")
        out = tmp_path / "out.txt"
        write_mono(read_mono(original), out)
        assert out.read_bytes() == original.read_bytes()

    def test_missing_final_newline_tolerated(self, tmp_path):
        path = write(tmp_path, "a b\nc", "m.txt")
        assert read_mono(path) == [["a", "b"], ["c"]]

    def test_limit_zero_keeps_nothing(self, tmp_path):
        path = write(tmp_path, "a\nb\n", "m.txt")
        assert read_mono(path, limit=0) == []

    def test_negative_limit_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="limit"):
            read_mono(write(tmp_path, "a\nb\n", "m.txt"), limit=-3)

    def test_leading_bom_stripped(self, tmp_path):
        path = write(tmp_path, "\ufeffa b\nc\n", "m.txt")
        assert read_mono(path) == [["a", "b"], ["c"]]


class TestParallel:
    def test_pairing(self, tmp_path):
        src = write(tmp_path, "a\nb\nc\n", "s.txt")
        tgt = write(tmp_path, "x\ny\nz\n", "t.txt")
        pairs = read_parallel(src, tgt)
        assert pairs == [(["a"], ["x"]), (["b"], ["y"]), (["c"], ["z"])]

    def test_length_mismatch_names_both_counts(self, tmp_path):
        src = write(tmp_path, "a\nb\nc\n", "s.txt")
        tgt = write(tmp_path, "x\ny\nz\nw\n", "t.txt")
        with pytest.raises(ValidationError, match=r"3.*4|4.*3"):
            read_parallel(src, tgt)

    def test_blank_side_dropped_with_warning(self, tmp_path, caplog):
        src = write(tmp_path, "a\n\nc\n", "s.txt")
        tgt = write(tmp_path, "x\ny\nz\n", "t.txt")
        with caplog.at_level(logging.WARNING):
            pairs = read_parallel(src, tgt)
        assert pairs == [(["a"], ["x"]), (["c"], ["z"])]
        assert "1" in caplog.text

    def test_unicode_line_separators_do_not_split_lines(self, tmp_path):
        # str.splitlines() would break both sides at U+2028 and keep the
        # counts equal while shifting every later pair.
        src = write(tmp_path, "a b\u2028c\nd e\n", "s.txt")
        tgt = write(tmp_path, "x\u2028y\nz\n", "t.txt")
        assert read_parallel(src, tgt) == [(["a", "b", "c"], ["x", "y"]), (["d", "e"], ["z"])]
        assert read_mono(src) == [["a", "b", "c"], ["d", "e"]]

    def test_other_splitlines_breaks_do_not_split_lines(self, tmp_path):
        src = write(tmp_path, "a\x85b\x0cc\x1cd\n", "s.txt")
        tgt = write(tmp_path, "x\n", "t.txt")
        assert len(read_parallel(src, tgt)) == 1

    def test_leading_bom_stripped(self, tmp_path):
        src = write(tmp_path, "\ufeffa\n", "s.txt")
        tgt = write(tmp_path, "\ufeffx\n", "t.txt")
        assert read_parallel(src, tgt) == [(["a"], ["x"])]


TWO_COL = "I\tPRON\nsuspect\tVERB\n\nwar\tNOUN\n"

CONLLU = """# sent_id = 1
# text = We suspect it
1-2\tWe've\t_\t_\t_\t_\t_\t_\t_\t_
1\tWe\twe\tPRON\tPRP\t_\t2\tnsubj\t_\t_
2\tsuspect\tsuspect\tVERB\tVBP\t_\t0\troot\t_\t_
2.1\telided\t_\t_\t_\t_\t_\t_\t_\t_
3\tit\tit\tPRON\tPRP\t_\t2\tobj\t_\t_

"""

WORD = "1\tWe\twe\tPRON\tPRP\t_\t0\troot\t_\t_\n"


class TestTwoColumn:
    def test_parse(self, tmp_path):
        corpus = read_labeled(write(tmp_path, TWO_COL, "x.tsv"), Schema.POS)
        assert len(corpus.sentences) == 2
        first = corpus.sentences[0]
        assert first.tokens == ["I", "suspect"]
        assert first.labels == ["PRON", "VERB"]

    def test_empty_file(self, tmp_path):
        corpus = read_labeled(write(tmp_path, "", "x.tsv"), Schema.NER)
        assert corpus.sentences == []

    def test_inconsistent_columns_name_line(self, tmp_path):
        path = write(tmp_path, "a\tO\nb\tO\textra\n", "x.tsv")
        with pytest.raises(DataFormatError, match="line 2"):
            read_labeled(path, Schema.NER)

    def test_empty_label_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="line 1"):
            read_labeled(write(tmp_path, "a\t\n", "x.tsv"), Schema.NER)

    def test_token_and_label_column_selection(self, tmp_path):
        path = write(tmp_path, "1\tfoo\tNN\tB-ORG\n", "x.tsv")
        corpus = read_labeled(path, Schema.NER, token_col=1, label_col=3)
        assert corpus.sentences[0].tokens == ["foo"]
        assert corpus.sentences[0].labels == ["B-ORG"]

    def test_round_trip_bytes(self, tmp_path):
        original = write(tmp_path, TWO_COL, "x.tsv")
        out = tmp_path / "out.tsv"
        write_labeled(read_labeled(original, Schema.POS), out, Format.TWO_COL)
        assert out.read_bytes() == original.read_bytes()

    def test_extra_columns_round_trip(self, tmp_path):
        text = "foo\tNN\tB-ORG\tmisc\nbar\tVB\tO\tmisc2\n"
        original = write(tmp_path, text, "x.tsv")
        out = tmp_path / "out.tsv"
        corpus = read_labeled(original, Schema.NER, token_col=0, label_col=2)
        write_labeled(corpus, out, Format.TWO_COL)
        assert out.read_bytes() == original.read_bytes()

    def test_dep_schema_rejected(self, tmp_path):
        path = write(tmp_path, TWO_COL, "x.tsv")
        with pytest.raises(ValidationError):
            read_labeled(path, Schema.DEP)

    def test_leading_bom_stripped(self, tmp_path):
        corpus = read_labeled(write(tmp_path, "\ufeff" + TWO_COL, "x.tsv"), Schema.POS)
        assert corpus.sentences[0].tokens == ["I", "suspect"]


class TestConllu:
    def test_pos_parse(self, tmp_path):
        corpus = read_labeled(write(tmp_path, CONLLU, "x.conllu"), Schema.POS, Format.CONLLU)
        sent = corpus.sentences[0]
        assert sent.tokens == ["We", "suspect", "it"]
        assert sent.labels == ["PRON", "VERB", "PRON"]
        raw = [p for kind, p in sent.passthrough.rows if kind == "raw"]
        assert len(raw) == 4  # two comments, one range line, one empty node

    def test_dep_parse(self, tmp_path):
        corpus = read_labeled(write(tmp_path, CONLLU, "x.conllu"), Schema.DEP, Format.CONLLU)
        sent = corpus.sentences[0]
        assert sent.heads == [2, 0, 2]
        assert sent.deprels == ["nsubj", "root", "obj"]

    def test_non_integer_head_names_line(self, tmp_path):
        bad = CONLLU.replace("2\tsuspect\tsuspect\tVERB\tVBP\t_\t0\troot",
                             "2\tsuspect\tsuspect\tVERB\tVBP\t_\t_\troot")
        path = write(tmp_path, bad, "x.conllu")
        with pytest.raises(DataFormatError, match="line 5"):
            read_labeled(path, Schema.DEP, Format.CONLLU)
        # POS reading does not need heads
        read_labeled(path, Schema.POS, Format.CONLLU)

    def test_head_out_of_range_rejected(self, tmp_path):
        bad = CONLLU.replace("\t2\tobj", "\t9\tobj")
        with pytest.raises(DataFormatError, match="head 9"):
            read_labeled(write(tmp_path, bad, "x.conllu"), Schema.DEP, Format.CONLLU)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = write(tmp_path, "1\tWe\twe\tPRON\n\n", "x.conllu")
        with pytest.raises(DataFormatError, match="line 1"):
            read_labeled(path, Schema.POS, Format.CONLLU)

    def test_bad_id_rejected(self, tmp_path):
        path = write(tmp_path, "x\tWe\twe\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n\n", "x.conllu")
        with pytest.raises(DataFormatError, match="ID"):
            read_labeled(path, Schema.POS, Format.CONLLU)

    def test_round_trip_bytes(self, tmp_path):
        original = write(tmp_path, CONLLU, "x.conllu")
        for schema in (Schema.POS, Schema.DEP):
            out = tmp_path / f"out_{schema.value}.conllu"
            write_labeled(read_labeled(original, schema, Format.CONLLU), out, Format.CONLLU)
            assert out.read_bytes() == original.read_bytes()

    def test_leading_bom_stripped(self, tmp_path):
        path = write(tmp_path, "\ufeff" + CONLLU, "x.conllu")
        assert sniff_format(path) is Format.CONLLU
        corpus = read_labeled(path, Schema.POS, Format.CONLLU)
        assert corpus.sentences[0].passthrough.rows[0] == ("raw", CONLLU.splitlines()[0])

    def test_write_without_passthrough(self, tmp_path):
        sent = LabeledSentence(["a", "b"], Schema.DEP, heads=[2, 0], deprels=["nsubj", "root"])
        out = tmp_path / "out.conllu"
        write_labeled(LabeledCorpus(Schema.DEP, [sent]), out, Format.CONLLU)
        again = read_labeled(out, Schema.DEP, Format.CONLLU)
        assert again.sentences[0].tokens == ["a", "b"]
        assert again.sentences[0].heads == [2, 0]

    def test_ner_schema_rejected(self, tmp_path):
        path = write(tmp_path, CONLLU, "x.conllu")
        with pytest.raises(ValidationError):
            read_labeled(path, Schema.NER, Format.CONLLU)

    def test_missing_trailing_blank_line_still_parses(self, tmp_path):
        path = write(tmp_path, CONLLU.rstrip("\n") + "\n", "x.conllu")
        corpus = read_labeled(path, Schema.POS, Format.CONLLU)
        assert corpus.sentences[0].tokens == ["We", "suspect", "it"]

    def test_comment_only_block_rejected(self, tmp_path):
        path = write(tmp_path, "# only a comment\n\n", "x.conllu")
        with pytest.raises(DataFormatError, match="no word lines") as exc:
            read_labeled(path, Schema.POS, Format.CONLLU)
        assert exc.value.line == 1

    @pytest.mark.parametrize("text, line", [
        ("# a\n# b\n", 1),
        (WORD + "\n# c\n# d\n\n", 3),
    ], ids=["at-end-of-file", "second-block"])
    def test_no_word_lines_names_the_blocks_first_line(self, tmp_path, text, line):
        path = write(tmp_path, text, "x.conllu")
        with pytest.raises(DataFormatError, match="no word lines") as exc:
            read_labeled(path, Schema.POS, Format.CONLLU)
        assert exc.value.line == line

    @pytest.mark.parametrize("id_field", ["1-2", "10-12", "1.1", "0.1"])
    def test_range_and_empty_node_ids_pass_through(self, tmp_path, id_field):
        line = id_field + "\tx" + "\t_" * 8
        path = write(tmp_path, WORD + line + "\n", "x.conllu")
        sent = read_labeled(path, Schema.POS, Format.CONLLU).sentences[0]
        assert sent.tokens == ["We"]
        assert sent.passthrough.rows[1] == ("raw", line)

    @pytest.mark.parametrize(
        "id_field", ["1-2-3", "1.2.3", "1-2.3", "1.2-3", "-1", "1-", ".1", "1.", "a", ""])
    def test_other_ids_rejected(self, tmp_path, id_field):
        path = write(tmp_path, WORD + id_field + "\tx" + "\t_" * 8 + "\n", "x.conllu")
        with pytest.raises(DataFormatError, match="line 2: bad ID field"):
            read_labeled(path, Schema.POS, Format.CONLLU)

    def test_whitespace_only_line_separates_sentences(self, tmp_path):
        path = write(tmp_path, CONLLU.rstrip("\n") + "\n \t\n" + CONLLU, "x.conllu")
        again = write(tmp_path, CONLLU + CONLLU, "y.conllu")
        corpus = read_labeled(path, Schema.DEP, Format.CONLLU)
        assert len(corpus) == 2
        assert corpus == read_labeled(again, Schema.DEP, Format.CONLLU)


class TestValidation:
    def test_label_length_mismatch(self):
        with pytest.raises(ValidationError):
            LabeledSentence(["a", "b"], Schema.POS, labels=["NOUN"])

    def test_token_with_whitespace(self):
        with pytest.raises(ValidationError):
            LabeledSentence(["a b"], Schema.POS, labels=["NOUN"])

    def test_empty_sentence(self):
        with pytest.raises(ValidationError):
            LabeledSentence([], Schema.POS, labels=[])

    def test_dep_head_range(self):
        with pytest.raises(ValidationError):
            LabeledSentence(["a"], Schema.DEP, heads=[2], deprels=["root"])

    def test_write_rejects_impossible_formats(self, tmp_path):
        ner = LabeledCorpus(Schema.NER, [LabeledSentence(["a"], Schema.NER, labels=["O"])])
        dep = LabeledCorpus(Schema.DEP, [LabeledSentence(["a"], Schema.DEP, heads=[0], deprels=["root"])])
        with pytest.raises(ValidationError):
            write_labeled(ner, tmp_path / "x", Format.CONLLU)
        with pytest.raises(ValidationError):
            write_labeled(dep, tmp_path / "x", Format.TWO_COL)


def test_sniff_format(tmp_path):
    assert sniff_format(write(tmp_path, TWO_COL, "a.tsv")) is Format.TWO_COL
    assert sniff_format(write(tmp_path, CONLLU, "b.conllu")) is Format.CONLLU


def test_sniff_format_hash_line_with_a_tab_is_not_a_comment(tmp_path):
    # a TwoColumn row whose token starts with '#' (a symbol, a hashtag)
    for text, label in (("#\tSYM\nI\tPRON\n", "SYM"), ("#tag\tX\n\nwar\tNOUN\n", "X")):
        path = write(tmp_path, text, "a.tsv")
        assert sniff_format(path) is Format.TWO_COL
        assert read_labeled(path, Schema.POS, Format.TWO_COL).sentences[0].labels[0] == label
    # a '#' line with a tab is judged by its column count; one without is a comment
    ten_columns = "#\t" + "\t".join("_" * 9) + "\n"
    assert sniff_format(write(tmp_path, ten_columns, "b.conllu")) is Format.CONLLU
    assert sniff_format(write(tmp_path, "# comment\nI\tPRON\n", "c.conllu")) is Format.CONLLU


@pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_read_alike(tmp_path, eol):
    """CRLF and CR-only line ends read exactly as LF does."""

    def read_both(read, *texts):
        lf = [write(tmp_path, text, f"lf{i}") for i, text in enumerate(texts)]
        other = []
        for i, text in enumerate(texts):
            path = tmp_path / f"other{i}"
            path.write_bytes(text.replace("\n", eol).encode("utf-8"))
            other.append(path)
        return read(*lf), read(*other)

    two_col = "foo\tNN\tB-ORG\n \nbar\tVB\tO\n\nbaz\tNN\tO\n"
    cases = [
        (read_mono, "a b\n\n  \nc\n"),
        (read_parallel, "a\n\nc\n", "x\ny\nz\n"),
        (lambda p: read_labeled(p, Schema.NER, label_col=2), two_col),
        (lambda p: read_labeled(p, Schema.DEP, Format.CONLLU), CONLLU + CONLLU),
        (sniff_format, two_col),
        (sniff_format, CONLLU),
        (load_lexicon, "# src_lang: en\nthe\til\n\n#1\tx\nbig house\tdar\n"),
    ]
    for read, *texts in cases:
        lf, other = read_both(read, *texts)
        assert other == lf


# Round trips over arbitrary Unicode tokens (see conftest.TOKENS and FIELDS
# for what the formats cannot carry). A file whose text starts with a
# byte-order mark is skipped: every reader drops a leading one.

# blank lines are skipped on reading, so a sentence has at least one token
SENTENCES = st.lists(TOKENS, min_size=1, max_size=4)


def written_text(path):
    text = path.read_text(encoding="utf-8")
    assume(not text.startswith(BOM))
    return text


@given(st.lists(SENTENCES, max_size=4))
@settings(max_examples=100, deadline=None)
def test_mono_round_trip(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("mono") / "m.txt"
    write_mono(corpus, path)
    written_text(path)
    assert read_mono(path) == corpus


@given(st.lists(st.tuples(SENTENCES, SENTENCES), max_size=4))
@settings(max_examples=100, deadline=None)
def test_parallel_round_trip(tmp_path_factory, corpus):
    tmp = tmp_path_factory.mktemp("parallel")
    write_parallel(corpus, tmp / "s.txt", tmp / "t.txt")
    written_text(tmp / "s.txt")
    written_text(tmp / "t.txt")
    assert read_parallel(tmp / "s.txt", tmp / "t.txt") == corpus


@st.composite
def two_col_corpora(draw):
    """Token and label columns plus extra columns, kept verbatim; a two-col
    label may not be empty, and every row of a file has as many columns."""
    schema = draw(st.sampled_from([Schema.NER, Schema.POS]))
    extra = draw(st.integers(0, 2))
    row = st.tuples(TOKENS, FIELDS.filter(bool), st.lists(FIELDS, min_size=extra, max_size=extra))
    sentences = []
    for rows in draw(st.lists(st.lists(row, min_size=1, max_size=4), max_size=4)):
        sentences.append(LabeledSentence(
            [token for token, _, _ in rows], schema, labels=[label for _, label, _ in rows],
            passthrough=TwoColRows(0, 1, [[token, label, *more] for token, label, more in rows])))
    return LabeledCorpus(schema, sentences)


@st.composite
def conllu_corpora(draw):
    """POS or DEP sentences written without passthrough rows; any field but
    the token may be empty."""
    schema = draw(st.sampled_from([Schema.POS, Schema.DEP]))
    sentences = []
    for tokens in draw(st.lists(SENTENCES, max_size=4)):
        n = len(tokens)
        fields = draw(st.lists(FIELDS, min_size=n, max_size=n))
        if schema is Schema.POS:
            sentences.append(LabeledSentence(tokens, schema, labels=fields))
        else:
            heads = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
            sentences.append(LabeledSentence(tokens, schema, heads=heads, deprels=fields))
    return LabeledCorpus(schema, sentences)


def assert_labeled_round_trip(path, corpus, fmt):
    write_labeled(corpus, path, fmt)
    text = written_text(path)
    again = read_labeled(path, corpus.schema, fmt)
    assert [(s.tokens, s.labels, s.heads, s.deprels) for s in again.sentences] == [
        (s.tokens, s.labels, s.heads, s.deprels) for s in corpus.sentences]
    if fmt is Format.TWO_COL:
        assert [s.passthrough.rows for s in again.sentences] == [
            s.passthrough.rows for s in corpus.sentences]
    write_labeled(again, path, fmt)  # now from the rows kept on reading
    assert path.read_text(encoding="utf-8") == text


@given(two_col_corpora())
@settings(max_examples=100, deadline=None)
def test_two_col_round_trip(tmp_path_factory, corpus):
    assert_labeled_round_trip(tmp_path_factory.mktemp("two-col") / "x.tsv", corpus,
                              Format.TWO_COL)


@given(conllu_corpora())
@settings(max_examples=100, deadline=None)
def test_conllu_round_trip(tmp_path_factory, corpus):
    assert_labeled_round_trip(tmp_path_factory.mktemp("conllu") / "x.conllu", corpus,
                              Format.CONLLU)
