import logging
import re
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import labeled_oracle
from conftest import BOM, FIELDS, TOKENS
from lexsynth.corpus_io import (
    BlockRows,
    Format,
    LabeledCorpus,
    LabeledSentence,
    MonoCorpus,
    Schema,
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

    def test_limit_zero_opens_the_file_and_reads_no_line(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_mono(tmp_path / "missing.txt", limit=0)
        # a byte that is not UTF-8 is an error only once its line is read
        path = tmp_path / "m.txt"
        path.write_bytes(b"\xe9\n")
        assert read_mono(path, limit=0) == []

    def test_negative_limit_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="limit"):
            read_mono(write(tmp_path, "a\nb\n", "m.txt"), limit=-3)

    def test_leading_bom_stripped(self, tmp_path):
        path = write(tmp_path, "\ufeffa b\nc\n", "m.txt")
        assert read_mono(path) == [["a", "b"], ["c"]]

    def test_lines_are_normalized(self, tmp_path):
        path = write(tmp_path, "\ta  b\u00a0c \n d\u2028e\x0c\n", "m.txt")
        corpus = read_mono(path)
        assert isinstance(corpus, MonoCorpus)
        assert corpus.lines == ["a b c", "d e"]

    @pytest.mark.parametrize("token", ["a b", "", "\t", "a\u2028"])
    def test_write_rejects_a_token_its_line_would_split(self, tmp_path, token):
        # the token used to be written inside the joined line
        out = tmp_path / "out.txt"
        with pytest.raises(ValidationError,
                           match=re.escape(f"sentence 1, token 0: {token!r}")):
            write_mono([["ok"], [token, "x"]], out)
        assert not out.exists()

    def test_undecodable_byte_named_by_its_file_offset(self, tmp_path):
        # far past the text reader's first buffered chunk
        path = tmp_path / "m.txt"
        good = "\ufeff" + "a b\n" * 50_000
        path.write_bytes(good.encode("utf-8") + b"c\xe9\n")
        offset = len(good.encode("utf-8")) + 1
        with pytest.raises(DataFormatError,
                           match=f"m.txt: not valid UTF-8: byte 0xe9 at byte offset {offset}$"):
            read_mono(path)


class TestMonoCorpus:
    def test_items_are_token_lists(self):
        corpus = MonoCorpus(["a b", "", "c"])
        assert len(corpus) == 3
        assert corpus[0] == ["a", "b"] and corpus[1] == [] and corpus[-1] == ["c"]
        assert list(corpus) == [["a", "b"], [], ["c"]]
        assert corpus[1:] == MonoCorpus(["", "c"]) and isinstance(corpus[1:], MonoCorpus)
        with pytest.raises(IndexError):
            corpus[3]

    def test_of_joins_token_lists_and_keeps_a_corpus(self):
        corpus = MonoCorpus.of([["a", "b"], [], ("c",)])
        assert corpus.lines == ["a b", "", "c"]
        assert MonoCorpus.of(corpus) is corpus

    def test_equality_with_sequences_of_token_lists(self):
        corpus = MonoCorpus(["a b", "c"])
        assert corpus == [["a", "b"], ["c"]] and [["a", "b"], ["c"]] == corpus
        assert corpus == MonoCorpus(["a b", "c"])
        assert corpus != [["a", "b"]] and corpus != [["a", "b"], ["d"]]
        assert corpus != MonoCorpus(["a", "b c"])
        assert corpus != "a b" and corpus != 3

    def test_repr_shows_the_lines(self):
        assert repr(MonoCorpus(["a b"])) == "MonoCorpus(['a b'])"


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

    def test_dropped_holds_the_skipped_line_numbers(self, tmp_path):
        src = write(tmp_path, "\na\n \nc\nd\n", "s.txt")
        tgt = write(tmp_path, "v\nx\ny\nz\n\n", "t.txt")
        pairs = read_parallel(src, tgt)
        assert pairs.dropped == (0, 2, 4)
        assert pairs == [(["a"], ["x"]), (["c"], ["z"])]
        assert len(pairs) == 2 and list(pairs) == [(["a"], ["x"]), (["c"], ["z"])]
        assert read_parallel(tmp_path / "s.txt", tmp_path / "s.txt").dropped == (0, 2)

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
        # two comments, one range line and one empty node, in place
        assert sent.passthrough.lines == CONLLU.splitlines()[:-1]
        assert sent.passthrough.word_lines == [3, 4, 6]
        assert [sent.passthrough.lines[p].split("\t")[1]
                for p in sent.passthrough.word_lines] == sent.tokens

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

    @pytest.mark.parametrize("head", ["+1", " 1", "1 ", "0_1", "\u0661", "01"])
    def test_head_must_be_a_canonical_decimal(self, tmp_path, head):
        # int() takes each of these as 1; written back, it would read "1"
        bad = CONLLU.replace("\t2\tobj", f"\t{head}\tobj")
        with pytest.raises(DataFormatError, match=re.escape(f"line 7: non-integer HEAD {head!r}")):
            read_labeled(write(tmp_path, bad, "x.conllu"), Schema.DEP, Format.CONLLU)

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
        rows = corpus.sentences[0].passthrough
        assert rows.lines[0] == CONLLU.splitlines()[0] and 0 not in rows.word_lines

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
        assert sent.passthrough.lines == [WORD.rstrip("\n"), line]
        assert sent.passthrough.word_lines == [0]

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


class TestWriteChecks:
    """``write_labeled`` refuses, before the file is opened, what it could
    not write so that it reads back the same."""

    @pytest.mark.parametrize("fmt, text, name", [
        (Format.TWO_COL, TWO_COL, "x.tsv"),
        (Format.CONLLU, CONLLU, "x.conllu"),
    ], ids=["two-col", "conllu"])
    @pytest.mark.parametrize("grow", [True, False], ids=["more-tokens", "fewer-tokens"])
    def test_tokens_and_kept_word_rows_must_match_in_number(self, tmp_path, fmt, text, name, grow):
        # a token beyond the kept rows used to be lost (CoNLL-U) or raise IndexError (TwoColumn)
        corpus = read_labeled(write(tmp_path, text + text, name), Schema.POS, fmt)
        sent = corpus.sentences[1]
        if grow:
            changed = replace(sent, tokens=sent.tokens + ["x"], labels=sent.labels + ["X"])
        else:
            changed = replace(sent, tokens=sent.tokens[:-1], labels=sent.labels[:-1])
        corpus.sentences[1] = changed
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match=(
                f"sentence 1: {len(changed.tokens)} tokens but {len(sent.tokens)} word rows")):
            write_labeled(corpus, out, fmt)
        assert not out.exists()

    @pytest.mark.parametrize("fmt, schema, label", [
        (Format.TWO_COL, Schema.NER, "X\tY"),
        (Format.TWO_COL, Schema.POS, "X\nY"),
        (Format.TWO_COL, Schema.POS, "X\rY"),
        (Format.TWO_COL, Schema.NER, ""),
        (Format.CONLLU, Schema.POS, "X\tY"),
        (Format.CONLLU, Schema.POS, "\n"),
        (Format.CONLLU, Schema.DEP, "root\tx"),
        (Format.CONLLU, Schema.DEP, "\r"),
    ])
    def test_labels_the_format_cannot_hold_are_rejected(self, tmp_path, fmt, schema, label):
        # "X\tY" used to be written and read back as "X"; a DEPREL with a tab
        # gave a file with 11 columns
        def sentence(labels):
            if schema is Schema.DEP:
                return LabeledSentence(["a", "b"], schema, heads=[0, 1], deprels=labels)
            return LabeledSentence(["a", "b"], schema, labels=labels)

        corpus = LabeledCorpus(schema, [sentence(["A", "B"]), sentence(["A", label])])
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match=re.escape(
                f"sentence 1, token 1: {fmt.value} cannot hold the label {label!r}")):
            write_labeled(corpus, out, fmt)
        assert not out.exists()

    @pytest.mark.parametrize("second", ["c\tO\n", None], ids=["read", "built-in-code"])
    def test_two_col_blocks_must_share_a_column_count(self, tmp_path, second):
        # a 4-column block and a 2-column block used to be written together,
        # giving a file read_labeled rejects ("inconsistent column count")
        corpus = read_labeled(write(tmp_path, "a\tX\tx\tm\n", "gold.tsv"), Schema.POS)
        if second is None:
            corpus.sentences.append(LabeledSentence(["c"], Schema.POS, labels=["X"]))
        else:
            corpus.sentences += read_labeled(write(tmp_path, second, "pseudo.tsv"), Schema.POS).sentences
        out = tmp_path / "out.tsv"
        with pytest.raises(ValidationError, match=re.escape(
                "sentence 1 has 2 two-col columns but sentence 0 has 4")):
            write_labeled(corpus, out, Format.TWO_COL)
        assert not out.exists()
        # CoNLL-U writes both with default rows
        write_labeled(corpus, tmp_path / "out.conllu", Format.CONLLU)

    def test_conllu_labels_may_be_empty(self, tmp_path):
        corpus = LabeledCorpus(Schema.POS, [LabeledSentence(["a"], Schema.POS, labels=[""])])
        out = tmp_path / "out.conllu"
        write_labeled(corpus, out, Format.CONLLU)
        assert out.read_text(encoding="utf-8") == "1\ta\t_\t\t_\t_\t_\t_\t_\t_\n\n"
        assert read_labeled(out, Schema.POS, Format.CONLLU).sentences[0].labels == [""]

    @pytest.mark.parametrize("token_col, label_col", [(0, 0), (1, 1), (-1, 1), (0, -1), (-2, -1)])
    def test_token_and_label_columns_must_differ_and_be_non_negative(
            self, tmp_path, token_col, label_col):
        # token_col=-1, label_col=1 on a two-field file named one field twice,
        # so the synthesized token was overwritten by the label on writing
        path = write(tmp_path, "a\tX\n", "x.tsv")
        with pytest.raises(ValidationError, match=re.escape(
                f"token_col {token_col} and label_col {label_col} must differ and be >= 0")):
            read_labeled(path, Schema.NER, token_col=token_col, label_col=label_col)


class TestCrossFormat:
    """A sentence written in the other format than it was read in gets
    default rows, not the rows it was read with."""

    def test_two_col_written_as_conllu(self, tmp_path):
        path = write(tmp_path, "I\tPRP\tPRON\n\nwar\tNN\tNOUN\n", "x.tsv")
        corpus = read_labeled(path, Schema.POS, label_col=2)
        out = tmp_path / "out.conllu"
        write_labeled(corpus, out, Format.CONLLU)
        assert out.read_text(encoding="utf-8") == (
            "1\tI\t_\tPRON\t_\t_\t_\t_\t_\t_\n\n"
            "1\twar\t_\tNOUN\t_\t_\t_\t_\t_\t_\n\n"
        )

    def test_conllu_written_as_two_col(self, tmp_path):
        corpus = read_labeled(write(tmp_path, CONLLU + CONLLU, "x.conllu"), Schema.POS, Format.CONLLU)
        out = tmp_path / "out.tsv"
        write_labeled(corpus, out, Format.TWO_COL)
        block = "We\tPRON\nsuspect\tVERB\nit\tPRON\n"
        assert out.read_text(encoding="utf-8") == block + "\n" + block

    def test_rows_of_another_schema_are_not_reused(self, tmp_path):
        # POS rows fill FORM and UPOS only; a DEP corpus writes its own
        pos = read_labeled(write(tmp_path, CONLLU, "x.conllu"), Schema.POS, Format.CONLLU)
        sent = LabeledSentence(["a", "b"], Schema.DEP, heads=[2, 0], deprels=["nsubj", "root"],
                               passthrough=replace(pos.sentences[0].passthrough,
                                                   word_lines=pos.sentences[0].passthrough.word_lines[:2]))
        out = tmp_path / "out.conllu"
        write_labeled(LabeledCorpus(Schema.DEP, [sent]), out, Format.CONLLU)
        assert out.read_text(encoding="utf-8") == (
            "1\ta\t_\t_\t_\t_\t2\tnsubj\t_\t_\n2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
        )


class TestValidation:
    def test_label_length_mismatch(self):
        with pytest.raises(ValidationError):
            LabeledSentence(["a", "b"], Schema.POS, labels=["NOUN"])

    # " a" and "b " used to be accepted, although no reader can give them
    @pytest.mark.parametrize("token", ["a b", " a", "b ", "a\n", "\u2028", ""])
    def test_token_with_whitespace(self, token):
        with pytest.raises(ValidationError, match=re.escape(f"bad token {token!r}")):
            LabeledSentence(["ok", token], Schema.POS, labels=["NOUN", "VERB"])

    @pytest.mark.parametrize("fmt, text, line", [
        (Format.TWO_COL, "a\tX\n b\tY\n", 2),
        (Format.TWO_COL, "a\tX\n\nc\tY\nd \tY\n", 4),
        (Format.CONLLU, "# c\n" + WORD + WORD.replace("We", " We"), 3),
    ])
    def test_token_field_with_outer_whitespace_names_its_line(self, tmp_path, fmt, text, line):
        with pytest.raises(DataFormatError, match=f"line {line}: bad token") as exc:
            read_labeled(write(tmp_path, text, "x"), Schema.POS, fmt)
        assert exc.value.line == line

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
            passthrough=BlockRows(Format.TWO_COL, (0, 1),
                                  ["\t".join([token, label, *more]) for token, label, more in rows],
                                  range(len(rows)))))
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


@st.composite
def conllu_texts(draw):
    """CoNLL-U text read as POS or DEP: word lines with any fields but the
    token, among comments, multiword-token ranges and empty nodes, each block
    ending with a blank line as the writer ends it; and each block's number
    of word lines.

    The writer puts ``str(head)`` back, so a DEP HEAD is written that way.
    """
    schema = draw(st.sampled_from([Schema.POS, Schema.DEP]))
    rest = st.lists(FIELDS, min_size=8, max_size=8)
    comment = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=6)
    blocks = []
    ns = draw(st.lists(st.integers(1, 4), max_size=4))
    for n in ns:
        lines = []
        for i in range(1, n + 1):
            form, (lemma, upos, xpos, feats, head, deprel, deps, misc) = draw(TOKENS), draw(rest)
            if schema is Schema.DEP:
                head = str(draw(st.integers(0, n)))
            lines.append("\t".join([str(i), form, lemma, upos, xpos, feats, head, deprel, deps, misc]))
        others = st.one_of(
            comment.map(lambda text: "#" + text),
            st.tuples(st.integers(1, n), st.integers(1, n), rest, FIELDS).map(
                lambda r: "\t".join([f"{r[0]}-{r[1]}", r[3], *r[2][:7], r[3]])),
            st.tuples(st.integers(0, n), st.integers(1, 9), rest, FIELDS).map(
                lambda r: "\t".join([f"{r[0]}.{r[1]}", r[3], *r[2]])),
        )
        for line in draw(st.lists(others, max_size=4)):
            lines.insert(draw(st.integers(0, len(lines))), line)
        blocks.append("\n".join(lines) + "\n\n")
    return schema, "".join(blocks), ns


@given(conllu_texts())
@settings(max_examples=200, deadline=None)
def test_conllu_text_round_trip(tmp_path_factory, case):
    """Reading CoNLL-U and writing it back gives the same bytes, with every
    comment, range and empty-node line in place."""
    schema, text, _ = case
    tmp = tmp_path_factory.mktemp("conllu-text")
    original = tmp / "x.conllu"
    original.write_bytes(text.encode("utf-8"))
    corpus = read_labeled(original, schema, Format.CONLLU)
    out = tmp / "out.conllu"
    write_labeled(corpus, out, Format.CONLLU)
    assert out.read_bytes() == original.read_bytes()


@st.composite
def labeled_fills(draw):
    """A TwoColumn or CoNLL-U file's text, with LF, CRLF or CR line ends and
    blank or whitespace-only lines around its blocks, how to read it, and
    new strings for each sentence's token and label fields: per sentence,
    one list per field in ``columns``, token first.

    TwoColumn files have two to four columns, the token and label in any
    two of them. The writer puts ``str(head)`` back, so new DEP heads are
    given that way.
    """
    if draw(st.booleans()):
        schema, text, ns = draw(conllu_texts())
        blocks = text.split("\n\n")[:-1]
        fmt, options = Format.CONLLU, {}
        columns = (1, 3) if schema is Schema.POS else (1, 6, 7)
        label = FIELDS
    else:
        schema = draw(st.sampled_from([Schema.NER, Schema.POS]))
        ncols = draw(st.integers(2, 4))
        columns = tuple(draw(st.permutations(range(ncols)))[:2])
        fmt, options = Format.TWO_COL, dict(zip(("token_col", "label_col"), columns))
        label = FIELDS.filter(bool)
        ns = draw(st.lists(st.integers(1, 4), max_size=4))
        blocks = []
        for n in ns:
            rows = []
            for _ in range(n):
                fields = draw(st.lists(FIELDS, min_size=ncols, max_size=ncols))
                fields[columns[0]], fields[columns[1]] = draw(TOKENS), draw(label)
                rows.append("\t".join(fields))
            blocks.append("\n".join(rows))
    blanks = st.lists(st.sampled_from(["", " ", "\t", "\u2003 "]), min_size=1, max_size=2)
    lines = draw(blanks) if draw(st.booleans()) else []
    for block in blocks:
        lines += [block, *draw(blanks)]
    text = "\n".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    values = []
    for n in ns:
        new = [draw(st.lists(TOKENS, min_size=n, max_size=n))]
        if schema is Schema.DEP:
            new.append([str(h) for h in draw(st.lists(st.integers(0, n), min_size=n, max_size=n))])
        new.append(draw(st.lists(label, min_size=n, max_size=n)))
        values.append(new)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return fmt, schema, options, columns, text.replace("\n", eol), values


@given(labeled_fills())
@settings(max_examples=300, deadline=None)
def test_labeled_fill_matches_text_oracle(tmp_path_factory, case):
    """Reading a labeled file, replacing every sentence's tokens and labels
    and writing it gives the text ``labeled_oracle.fill`` makes from the
    file's text alone."""
    fmt, schema, options, columns, text, values = case
    assume(not text.startswith(BOM))
    tmp = tmp_path_factory.mktemp("fill")
    path = tmp / "in"
    path.write_bytes(text.encode("utf-8"))
    corpus = read_labeled(path, schema, fmt, **options)
    assert len(corpus) == len(values)
    for k, (tokens, *labels) in enumerate(values):
        if schema is Schema.DEP:
            new = {"heads": list(map(int, labels[0])), "deprels": labels[1]}
        else:
            new = {"labels": labels[0]}
        corpus.sentences[k] = replace(corpus.sentences[k], tokens=tokens, **new)
    out = tmp / "out"
    write_labeled(corpus, out, fmt)
    want = labeled_oracle.fill(text, fmt is Format.CONLLU, columns, values)
    assert out.read_bytes() == want.encode("utf-8")


def assert_labeled_round_trip(path, corpus, fmt):
    write_labeled(corpus, path, fmt)
    text = written_text(path)
    again = read_labeled(path, corpus.schema, fmt)
    assert [(s.tokens, s.labels, s.heads, s.deprels) for s in again.sentences] == [
        (s.tokens, s.labels, s.heads, s.deprels) for s in corpus.sentences]
    if fmt is Format.TWO_COL:
        assert [s.passthrough for s in again.sentences] == [
            s.passthrough for s in corpus.sentences]
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
