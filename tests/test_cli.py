import gc
import json
import logging
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (
    DISTILLED_TAGS,
    LABELED_LEX_PAIRS,
    LABELED_SRC,
    LABELED_TAGS,
    LABELED_WANT,
    MONO_LEX_PAIRS,
    MONO_SRC,
    MONO_WANT,
    verse_corpus,
)
from lexsynth import cli, corpus_io, mix, synth
from lexsynth.align import model1
from lexsynth.align import (
    AlignerConfig,
    induce_lexicon,
    swap_corpus,
    symmetrize,
    train_model1,
    viterbi_align,
    write_alignments,
)
from lexsynth.cli import main
from lexsynth.corpus_io import Format, Schema
from lexsynth.distill import apply_teacher_labels
from lexsynth.lexicon import LoadMode, load_lexicon, merge, save_lexicon
from lexsynth.report import lexicon_pos_distribution, pipeline_summary, summary_json
from lexsynth.synth import SynthesisConfig


def lexicon_file(tmp_path, pairs, name="lex.tsv"):
    path = tmp_path / name
    path.write_text("".join(f"{s}\t{t}\n" for s, t in pairs), encoding="utf-8")
    return path


def two_col_file(tmp_path, tokens, tags, name="data.tsv"):
    path = tmp_path / name
    path.write_text(
        "".join(f"{t}\t{l}\n" for t, l in zip(tokens.split(), tags.split())),
        encoding="utf-8")
    return path


def run_cli(argv, **kwargs) -> subprocess.CompletedProcess:
    """Run the CLI in a new interpreter, as a shell runs it."""
    src_dir = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "lexsynth.cli", *argv], env=env,
                          capture_output=True, timeout=120, **kwargs)


class TestLexCommands:
    def test_stats_json(self, tmp_path, capsys):
        lex = lexicon_file(tmp_path, MONO_LEX_PAIRS)
        assert main(["lex", "stats", "--lexicon", str(lex), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entry_pairs"] == 10
        assert stats["multi_token_targets"] == 1

    def test_stats_text(self, tmp_path, capsys):
        lex = lexicon_file(tmp_path, [("a", "x")])
        assert main(["lex", "stats", "--lexicon", str(lex)]) == 0
        assert "entry_pairs\t1" in capsys.readouterr().out

    def test_merge(self, tmp_path):
        base = lexicon_file(tmp_path, [("a", "x")], "base.tsv")
        extra = lexicon_file(tmp_path, [("a", "y"), ("b", "z")], "extra.tsv")
        out = tmp_path / "merged.tsv"
        assert main(["lex", "merge", "--base", str(base), "--extra", str(extra),
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "a\tx\na\ty\nb\tz\n"

    def test_induce_then_merge_into_a_base_that_names_its_languages(self, tmp_path):
        # the induced lexicon names no languages (und), which match the base's
        (tmp_path / "src.txt").write_text("the house\nthe book\na house\n", encoding="utf-8")
        (tmp_path / "tgt.txt").write_text("das haus\ndas buch\nein haus\n", encoding="utf-8")
        induced, merged = tmp_path / "induced.tsv", tmp_path / "merged.tsv"
        assert main(["lex", "induce", "--src", str(tmp_path / "src.txt"),
                     "--tgt", str(tmp_path / "tgt.txt"), "--out", str(induced),
                     "--min-count", "1"]) == 0
        base = tmp_path / "base.tsv"
        base.write_text("# src_lang: en\n# tgt_lang: de\nhouse\thaus\nthe\tder\n", encoding="utf-8")
        assert main(["lex", "merge", "--base", str(base), "--extra", str(induced),
                     "--out", str(merged)]) == 0
        assert merged.read_text(encoding="utf-8") == (
            "# src_lang: en\n# tgt_lang: de\n"
            "house\thaus\nthe\tder\nthe\tdas\na\tein\nbook\tbuch\n")

    def test_merge_logs_dropped_lines(self, tmp_path, capsys, caplog):
        # a source with whitespace can never match a token: dropped, counted
        base = lexicon_file(tmp_path, [("a", "x"), ("new york", "nju jork")], "base.tsv")
        extra = lexicon_file(tmp_path, [("a", "y"), ("b c", "d"), ("b", "z"),
                                        ("e f", "g")], "extra.tsv")
        out = tmp_path / "merged.tsv"
        with caplog.at_level(logging.WARNING, logger="lexsynth"):
            assert main(["lex", "merge", "--base", str(base), "--extra", str(extra),
                         "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "a\tx\na\ty\nb\tz\n"
        assert capsys.readouterr().out == ""
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"skipped 1 unusable line(s) in {base}",
                            f"skipped 2 unusable line(s) in {extra}"]

    def test_induce_writes_lexicon_and_alignments(self, tmp_path):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text("the house\nthe book\na house\n" * 2, encoding="utf-8")
        tgt.write_text("das haus\ndas buch\nein haus\n" * 2, encoding="utf-8")
        out = tmp_path / "induced.tsv"
        dump = tmp_path / "alignments.txt"
        assert main(["lex", "induce", "--src", str(src), "--tgt", str(tgt),
                     "--out", str(out), "--iterations", "10",
                     "--dump-alignments", str(dump)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "house\thaus" in text
        assert "# provenance: induced" in text
        assert len(dump.read_text(encoding="utf-8").splitlines()) == 6

    @pytest.mark.parametrize("dropped", [(1,), (0,), (3,), (1, 2), (0, 4)])
    def test_induce_dump_keeps_a_line_per_input_line(self, tmp_path, dropped):
        # a pair with a blank side is dropped; its alignment line is empty
        src = ["the house", "the book", "a house", "the book", "a house"]
        tgt = ["das haus", "das buch", "ein haus", "das buch", "ein haus"]
        for n in dropped:
            src[n] = ""
            tgt[n] = "ein"

        def induce(name, keep):
            (tmp_path / f"{name}.src").write_text(
                "".join(f"{src[n]}\n" for n in keep), encoding="utf-8")
            (tmp_path / f"{name}.tgt").write_text(
                "".join(f"{tgt[n]}\n" for n in keep), encoding="utf-8")
            assert main(["lex", "induce", "--src", str(tmp_path / f"{name}.src"),
                         "--tgt", str(tmp_path / f"{name}.tgt"), "--min-count", "1",
                         "--out", str(tmp_path / f"{name}.tsv"),
                         "--dump-alignments", str(tmp_path / f"{name}.al")]) == 0
            return [(tmp_path / f"{name}.{ext}").read_text(encoding="utf-8")
                    for ext in ("tsv", "al")]

        lexicon, dump = induce("all", range(5))
        kept_lexicon, kept_dump = induce("kept", [n for n in range(5) if n not in dropped])
        lines = kept_dump.splitlines()
        for n in dropped:
            lines.insert(n, "")
        assert dump == "".join(f"{line}\n" for line in lines)
        assert lexicon == kept_lexicon

    def test_induce_mismatched_lengths_exit_3_with_counts(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text("a\nb\nc\n", encoding="utf-8")
        tgt.write_text("x\ny\nz\nw\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        code = main(["lex", "induce", "--src", str(src), "--tgt", str(tgt), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "3" in err and "4" in err
        assert not out.exists()

    def null_token_induce(self, tmp_path, *flags, null_side="src"):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        texts = ["<NULL> a\na\n", "x y\ny\n"]
        if null_side == "tgt":
            texts.reverse()
        src.write_text(texts[0], encoding="utf-8")
        tgt.write_text(texts[1], encoding="utf-8")
        return ["lex", "induce", "--src", str(src), "--tgt", str(tgt),
                "--out", str(tmp_path / "out.tsv"), "--dump-alignments",
                str(tmp_path / "al.txt"), "--min-count", "1", *flags]

    def test_induce_null_spelled_token_is_an_ordinary_word(self, tmp_path):
        assert main(self.null_token_induce(tmp_path)) == 0
        assert (tmp_path / "al.txt").read_text(encoding="utf-8") == "0-0 1-1\n0-0\n"
        assert "<null>\tx\n" in (tmp_path / "out.tsv").read_text(encoding="utf-8")

    def test_induce_null_spelled_token_without_folding_exit_3(self, tmp_path, capsys):
        # on the target side, the backward direction (the encoded corpus's
        # swapped()) meets <NULL> as a source token
        for null_side in ("src", "tgt"):
            work = tmp_path / null_side
            work.mkdir()
            argv = self.null_token_induce(work, "--no-case-fold", null_side=null_side)
            inputs = set(work.iterdir())
            assert main(argv) == 3
            assert "<NULL>" in capsys.readouterr().err
            assert set(work.iterdir()) == inputs  # no output, no temp file

    def test_induce_encodes_each_side_once(self, tmp_path, monkeypatch):
        calls = []
        encode = model1._encode

        def spy(*args):
            calls.append(args)
            return encode(*args)

        monkeypatch.setattr(model1, "_encode", spy)
        corpus_io.write_parallel(verse_corpus(1500, seed=3), tmp_path / "src.txt",
                                 tmp_path / "tgt.txt")
        assert main(["lex", "induce", "--src", str(tmp_path / "src.txt"),
                     "--tgt", str(tmp_path / "tgt.txt"), "--out", str(tmp_path / "out.tsv"),
                     "--dump-alignments", str(tmp_path / "al.txt")]) == 0
        assert len(calls) == 2  # the source side and the target side

    def test_induce_case_folding_gate(self, tmp_path):
        # verse_corpus is all lowercase; respell about 40% of its tokens in
        # upper or title case, and one word pair with ß and SS, which
        # casefold (but not lower) maps to "ss"
        rng = random.Random(20)
        lower, mixed = [], []
        for src, tgt in verse_corpus(2000, seed=20):
            src = ["strasse" if w == "src1" else w for w in src]
            tgt = ["gasse" if w == "tgt1" else w for w in tgt]
            lower.append((src, tgt))
            mixed.append(tuple(
                [rng.choice(["straße", "STRASSE", "Straße"]) if w == "strasse"
                 else rng.choice(["gaße", "GASSE"]) if w == "gasse"
                 else rng.choices([w, w.upper(), w.capitalize()], weights=[6, 2, 2])[0]
                 for w in side]
                for side in (src, tgt)))

        def induce(corpus, name, *flags):
            work = tmp_path / name
            work.mkdir()
            corpus_io.write_parallel(corpus, work / "src.txt", work / "tgt.txt")
            assert main(["lex", "induce", "--src", str(work / "src.txt"),
                         "--tgt", str(work / "tgt.txt"), "--out", str(work / "out.tsv"),
                         "--dump-alignments", str(work / "al.txt"), *flags]) == 0
            return [(work / f).read_bytes() for f in ("out.tsv", "al.txt")]

        want = induce(lower, "lower")
        assert b"strasse\tgasse\n" in want[0]
        folded = induce(mixed, "folded")
        assert folded == want
        unfolded = induce(mixed, "unfolded", "--no-case-fold")
        assert unfolded[0] != want[0] and unfolded[1] != want[1]

    def test_induce_chunk_past_2_31_slots_exit_3_quickly(self, tmp_path, capsys):
        # one pair of 2**16 source and 2**15 target tokens: 2,147,516,416 slots
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text(" ".join(["a"] * 2**16) + "\n", encoding="utf-8")
        tgt.write_text(" ".join(["x"] * 2**15) + "\n", encoding="utf-8")
        inputs = set(tmp_path.iterdir())
        start = time.perf_counter()
        code = main(["lex", "induce", "--src", str(src), "--tgt", str(tgt),
                     "--out", str(tmp_path / "out.tsv")])
        elapsed = time.perf_counter() - start
        assert code == 3
        assert "2147516416 slots" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == inputs  # no output, no temp file
        assert elapsed < 2.0  # rejected before any slot array is made


class TestSynthCommands:
    def test_mono_reproducible(self, tmp_path):
        lex = lexicon_file(tmp_path, MONO_LEX_PAIRS)
        corpus = tmp_path / "mono.txt"
        corpus.write_text(MONO_SRC + "\n", encoding="utf-8")
        out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
        report = tmp_path / "report.json"
        args = ["synth", "mono", "--corpus", str(corpus), "--lexicon", str(lex),
                "--seed", "13", "--report", str(report)]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text(encoding="utf-8") == MONO_WANT + "\n"
        cov = json.loads(report.read_text(encoding="utf-8"))
        assert cov["replaced_tokens"] == 11
        assert cov["total_tokens"] == 21

    def test_mono_missing_seed_is_usage_error(self, tmp_path, capsys):
        lex = lexicon_file(tmp_path, MONO_LEX_PAIRS)
        corpus = tmp_path / "mono.txt"
        corpus.write_text("a\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        code = main(["synth", "mono", "--corpus", str(corpus), "--lexicon", str(lex),
                     "--out", str(out)])
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_mono_limit(self, tmp_path):
        lex = lexicon_file(tmp_path, [("a", "x")])
        corpus = tmp_path / "mono.txt"
        corpus.write_text("a\n" * 10, encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main(["synth", "mono", "--corpus", str(corpus), "--lexicon", str(lex),
                     "--out", str(out), "--seed", "1", "--limit", "4"]) == 0
        assert out.read_text(encoding="utf-8") == "x\n" * 4

    def test_labeled_two_col(self, tmp_path):
        lex = lexicon_file(tmp_path, LABELED_LEX_PAIRS)
        data = two_col_file(tmp_path, LABELED_SRC, LABELED_TAGS)
        out = tmp_path / "out.tsv"
        assert main(["synth", "labeled", "--input", str(data), "--format", "two-col",
                     "--schema", "pos", "--lexicon", str(lex), "--out", str(out),
                     "--seed", "3"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [l.split("\t")[0] for l in lines] == LABELED_WANT.split()
        assert [l.split("\t")[1] for l in lines] == LABELED_TAGS.split()

    def test_labeled_multi_token_entries_dropped_on_load(self, tmp_path):
        # loader filters multi-token targets, so labeled synthesis stays 1:1
        lex = lexicon_file(tmp_path, [("unnecessary", "bla bzonn"), ("the", "il")])
        data = two_col_file(tmp_path, "the unnecessary end", "DET ADJ NOUN")
        out = tmp_path / "out.tsv"
        assert main(["synth", "labeled", "--input", str(data), "--format", "two-col",
                     "--schema", "pos", "--lexicon", str(lex), "--out", str(out),
                     "--seed", "3"]) == 0
        tokens = [l.split("\t")[0] for l in out.read_text(encoding="utf-8").splitlines()]
        assert tokens == ["il", "unnecessary", "end"]

    def test_labeled_logs_each_lexicon_drop_reason(self, tmp_path, caplog):
        # "a b" can never match a token; "y z" is a multi-token target
        lex = lexicon_file(tmp_path, [("a b", "x"), ("c", "y z"), ("the", "il")])
        data = two_col_file(tmp_path, "the c", "DET NOUN")
        out = tmp_path / "out.tsv"
        with caplog.at_level(logging.INFO, logger="lexsynth"):
            assert main(["synth", "labeled", "--input", str(data), "--format", "two-col",
                         "--schema", "pos", "--lexicon", str(lex), "--out", str(out),
                         "--seed", "3"]) == 0
        assert out.read_text(encoding="utf-8") == "il\tDET\nc\tNOUN\n"
        assert [(r.levelno, r.getMessage()) for r in caplog.records
                if str(lex) in r.getMessage()] == [
            (logging.WARNING, f"skipped 1 unusable line(s) in {lex}"),
            (logging.INFO, f"dropped 1 multi-token entries from {lex}")]

    def test_labeled_report(self, tmp_path):
        lex = lexicon_file(tmp_path, LABELED_LEX_PAIRS)
        data = two_col_file(tmp_path, LABELED_SRC, LABELED_TAGS)
        out, report = tmp_path / "out.tsv", tmp_path / "coverage.json"
        assert main(["synth", "labeled", "--input", str(data), "--format", "two-col",
                     "--schema", "pos", "--lexicon", str(lex), "--out", str(out),
                     "--seed", "3", "--report", str(report)]) == 0
        corpus = corpus_io.read_labeled(data, Schema.POS)
        lexicon, _ = load_lexicon(lex, LoadMode.SINGLE_TOKEN_ONLY)
        _, want = synth.synth_labeled(corpus, lexicon, SynthesisConfig(seed=3))
        assert report.read_text(encoding="utf-8") == summary_json(want.to_dict())
        assert json.loads(report.read_text(encoding="utf-8"))["total_tokens"] == len(
            LABELED_SRC.split())

    def test_labeled_conllu_replaces_form_only(self, tmp_path):
        lex = lexicon_file(tmp_path, [("week", "ġimgħa")])
        data = tmp_path / "in.conllu"
        data.write_text(
            "# sent_id = 7\n"
            "1\tthis\tthis\tDET\tDT\t_\t2\tdet\t_\t_\n"
            "2\tweek\tweek\tNOUN\tNN\t_\t0\troot\t_\tSpaceAfter=No\n\n",
            encoding="utf-8")
        out = tmp_path / "out.conllu"
        assert main(["synth", "labeled", "--input", str(data), "--format", "conllu",
                     "--schema", "pos", "--lexicon", str(lex), "--out", str(out),
                     "--seed", "2"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# sent_id = 7"
        cols = lines[2].split("\t")
        assert cols[1] == "ġimgħa"            # FORM replaced
        assert cols[2] == "week"              # LEMMA untouched
        assert cols[3] == "NOUN"              # UPOS retained
        assert (cols[6], cols[9]) == ("0", "SpaceAfter=No")

    def test_bad_input_exit_2_and_no_output(self, tmp_path, capsys):
        lex = lexicon_file(tmp_path, [("a", "x")])
        bad = tmp_path / "bad.tsv"
        bad.write_text("token only line\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        code = main(["synth", "labeled", "--input", str(bad), "--format", "two-col",
                     "--schema", "pos", "--lexicon", str(lex), "--out", str(out),
                     "--seed", "1"])
        assert code == 2
        assert not out.exists()

    def test_missing_file_exit_2(self, tmp_path):
        lex = lexicon_file(tmp_path, [("a", "x")])
        code = main(["synth", "mono", "--corpus", str(tmp_path / "nope.txt"),
                     "--lexicon", str(lex), "--out", str(tmp_path / "o.txt"), "--seed", "1"])
        assert code == 2


class TestDistillCommand:
    def test_apply_with_report(self, tmp_path):
        pseudo = two_col_file(tmp_path, LABELED_WANT, LABELED_TAGS, "pseudo.tsv")
        teacher = two_col_file(tmp_path, LABELED_WANT, DISTILLED_TAGS, "teacher.tsv")
        out = tmp_path / "distilled.tsv"
        report = tmp_path / "report.json"
        assert main(["distill", "apply", "--pseudo", str(pseudo), "--teacher", str(teacher),
                     "--out", str(out), "--report", str(report)]) == 0
        tags = [l.split("\t")[1] for l in out.read_text(encoding="utf-8").splitlines()]
        assert tags == DISTILLED_TAGS.split()
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["changed"] == 2
        assert doc["per_label_confusion"] == {"AUX->NOUN": 1, "VERB->NOUN": 1}

    def test_token_mismatch_exit_3(self, tmp_path):
        pseudo = two_col_file(tmp_path, "a b", "X Y", "pseudo.tsv")
        teacher = two_col_file(tmp_path, "a c", "X Y", "teacher.tsv")
        out = tmp_path / "out.tsv"
        assert main(["distill", "apply", "--pseudo", str(pseudo), "--teacher", str(teacher),
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_dep_predictions_replace_heads_and_deprels(self, tmp_path):
        def conllu(path, head, deprel):
            path.write_text(
                f"1\tjien\t_\t_\t_\t_\t{head}\t{deprel}\t_\t_\n"
                "2\tmort\t_\t_\t_\t_\t0\troot\t_\t_\n\n",
                encoding="utf-8")
            return path

        pseudo = conllu(tmp_path / "pseudo.conllu", 2, "nsubj")
        teacher = conllu(tmp_path / "teacher.conllu", 0, "dislocated")
        out = tmp_path / "out.conllu"
        assert main(["distill", "apply", "--pseudo", str(pseudo), "--teacher", str(teacher),
                     "--out", str(out), "--schema", "dep"]) == 0
        first = out.read_text(encoding="utf-8").splitlines()[0].split("\t")
        assert (first[6], first[7]) == ("0", "dislocated")

    def test_auto_format_reads_two_col_starting_with_hash_token(self, tmp_path):
        # a first row "#<TAB>SYM" is a TwoColumn row, not a CoNLL-U comment
        pseudo = two_col_file(tmp_path, "# jien", "SYM PRON", "pseudo.tsv")
        teacher = two_col_file(tmp_path, "# jien", "SYM NOUN", "teacher.tsv")
        out = tmp_path / "out.tsv"
        assert main(["distill", "apply", "--pseudo", str(pseudo), "--teacher", str(teacher),
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "#\tSYM\njien\tNOUN\n"


class TestMixCommands:
    def test_upsample(self, tmp_path):
        gold = tmp_path / "gold.txt"
        gold.write_text("a\nb\nc\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main(["mix", "upsample", "--gold", str(gold), "--target-size", "7",
                     "--out", str(out), "--seed", "2"]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 7

    def test_concat_shuffle_deterministic(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("".join(f"a{i}\n" for i in range(50)), encoding="utf-8")
        b.write_text("".join(f"b{i}\n" for i in range(50)), encoding="utf-8")
        outs = []
        for name in ("o1.txt", "o2.txt"):
            out = tmp_path / name
            assert main(["mix", "concat", "--inputs", str(a), str(b), "--out", str(out),
                         "--seed", "4", "--shuffle"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert sorted(lines) == sorted([f"a{i}" for i in range(50)] + [f"b{i}" for i in range(50)])
        assert lines != [f"a{i}" for i in range(50)] + [f"b{i}" for i in range(50)]

    def test_joint_labeled(self, tmp_path):
        gold = two_col_file(tmp_path, "a b", "NOUN VERB", "gold.tsv")
        pseudo = two_col_file(tmp_path, "x y", "NOUN VERB", "pseudo.tsv")
        out = tmp_path / "joint.tsv"
        assert main(["mix", "joint-labeled", "--gold", str(gold), "--pseudo", str(pseudo),
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "a\tNOUN\nb\tVERB\n\nx\tNOUN\ny\tVERB\n"

    def test_joint_labeled_of_two_column_counts_is_rejected(self, tmp_path, capsys):
        # used to exit 0 with a joint.tsv that read_labeled rejects
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\tO\tx\tm\nb\tO\ty\tn\n", encoding="utf-8")
        pseudo = two_col_file(tmp_path, "c", "O", "pseudo.tsv")
        out = tmp_path / "joint.tsv"
        assert main(["mix", "joint-labeled", "--gold", str(gold), "--pseudo", str(pseudo),
                     "--out", str(out), "--format", "two-col", "--schema", "ner"]) == 3
        assert "sentence 1 has 2 two-col columns but sentence 0 has 4" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.tsv", "pseudo.tsv"]


class TestReportCommand:
    def test_pos_dist_json(self, tmp_path, capsys):
        lex = lexicon_file(tmp_path, [("house", "dar"), ("run", "ġiri")])
        ref = two_col_file(tmp_path, "house house run", "NOUN NOUN VERB", "ref.tsv")
        assert main(["report", "pos-dist", "--lexicon", str(lex), "--reference", str(ref),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fractions"] == {"NOUN": 0.5, "VERB": 0.5}

    def test_pos_dist_text(self, tmp_path, capsys):
        # tags by descending fraction, ties by tag, then the two counts
        lex = lexicon_file(tmp_path, [("house", "dar"), ("run", "ġiri"), ("big", "kbir"),
                                      ("dog", "kelb"), ("zebra", "żebra")])
        ref = two_col_file(tmp_path, "house run big dog", "NOUN VERB ADJ NOUN", "ref.tsv")
        assert main(["report", "pos-dist", "--lexicon", str(lex), "--reference", str(ref)]) == 0
        assert capsys.readouterr().out == (
            "NOUN\t0.500000\nADJ\t0.250000\nVERB\t0.250000\nfound\t4\nout_of_reference\t1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lex.tsv", "ref.tsv"]

    @pytest.mark.parametrize("command", ["lex-stats", "pos-dist"])
    def test_json_on_stdout_is_indented_utf8_with_one_lf(self, tmp_path, capsys, command):
        lex = lexicon_file(tmp_path, [("house", "dar"), ("run", "ġiri")])
        ref = two_col_file(tmp_path, "house run", "NOUN ĠVERB", "ref.tsv")
        argv, want = {
            "lex-stats": (["lex", "stats", "--lexicon", str(lex), "--json"],
                          {"entry_pairs": 2, "distinct_sources": 2,
                           "multi_candidate_sources": 0, "multi_token_targets": 0}),
            "pos-dist": (["report", "pos-dist", "--lexicon", str(lex), "--reference", str(ref),
                          "--json"],
                         {"fractions": {"NOUN": 0.5, "ĠVERB": 0.5}, "found": 2,
                          "out_of_reference": 0}),
        }[command]
        assert main(argv) == 0
        assert capsys.readouterr().out == json.dumps(want, ensure_ascii=False, indent=2) + "\n"

    def test_pos_dist_logs_dropped_lines(self, tmp_path, capsys, caplog):
        clean = lexicon_file(tmp_path, [("house", "dar"), ("run", "ġiri")], "clean.tsv")
        lex = lexicon_file(tmp_path, [("house", "dar"), ("new york", "nju jork"),
                                      ("run", "ġiri")])
        ref = two_col_file(tmp_path, "house house run", "NOUN NOUN VERB", "ref.tsv")
        assert main(["report", "pos-dist", "--lexicon", str(clean), "--reference", str(ref),
                     "--json"]) == 0
        want = capsys.readouterr().out
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lexsynth"):
            assert main(["report", "pos-dist", "--lexicon", str(lex), "--reference", str(ref),
                         "--json"]) == 0
        assert capsys.readouterr().out == want
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"skipped 1 unusable line(s) in {lex}"]

    @pytest.mark.parametrize("fmt, sentence", [
        ("two-col", "house\tNOUN\nrun\tVERB\n"),
        ("conllu", "1\thouse\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
                   "2\trun\t_\tVERB\t_\t_\t1\tdep\t_\t_\n"),
    ], ids=["two-col", "conllu"])
    def test_pos_dist_reads_a_pipe_only_with_a_named_format(self, tmp_path, fmt, sentence):
        # far more than the format guess reads ahead, which a pipe loses
        lex = lexicon_file(tmp_path, [("house", "dar"), ("run", "ġiri")])
        ref = tmp_path / "ref.txt"
        ref.write_text((sentence + "\n") * 2000, encoding="utf-8")
        argv = ["report", "pos-dist", "--lexicon", str(lex), "--json", "--reference"]
        from_file = run_cli([*argv, str(ref)])
        assert from_file.returncode == 0, from_file.stderr
        guessed = run_cli([*argv, "/dev/stdin"], input=ref.read_bytes())
        assert guessed.returncode == 2 and guessed.stdout == b""
        assert b"/dev/stdin: cannot guess the format of a pipe" in guessed.stderr
        named = run_cli([*argv, "/dev/stdin", "--format", fmt], input=ref.read_bytes())
        assert named.returncode == 0, named.stderr
        assert named.stdout == from_file.stdout


class TestUsage:
    def test_unknown_subcommand_exit_1(self):
        assert main(["lex", "frobnicate"]) == 1

    def test_no_args_exit_1(self):
        assert main([]) == 1

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "lexsynth" in capsys.readouterr().out


class TestNumericFlags:
    """Out-of-range numeric flags, and flags a command does not take (such as
    `--threads`), are usage errors: exit 1, nothing written."""

    def induce(self, tmp_path, *flags):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text("the house\na house\n", encoding="utf-8")
        tgt.write_text("das haus\nein haus\n", encoding="utf-8")
        return ["lex", "induce", "--src", str(src), "--tgt", str(tgt),
                "--out", str(tmp_path / "out"), "--dump-alignments", str(tmp_path / "al"),
                *flags]

    def mono(self, tmp_path, *flags):
        lex = lexicon_file(tmp_path, [("a", "x")])
        corpus = tmp_path / "mono.txt"
        corpus.write_text("a\n" * 3, encoding="utf-8")
        return ["synth", "mono", "--corpus", str(corpus), "--lexicon", str(lex),
                "--out", str(tmp_path / "out"), "--report", str(tmp_path / "report"),
                "--seed", "1", *flags]

    def labeled(self, tmp_path, *flags):
        lex = lexicon_file(tmp_path, LABELED_LEX_PAIRS)
        data = two_col_file(tmp_path, LABELED_SRC, LABELED_TAGS)
        return ["synth", "labeled", "--input", str(data), "--format", "two-col",
                "--schema", "pos", "--lexicon", str(lex), "--out", str(tmp_path / "out"),
                "--report", str(tmp_path / "report"), "--seed", "3", *flags]

    def upsample(self, tmp_path, *flags):
        gold = tmp_path / "gold.txt"
        gold.write_text("a\nb\n", encoding="utf-8")
        return ["mix", "upsample", "--gold", str(gold), "--out", str(tmp_path / "out"),
                "--seed", "1", *flags]

    def apply(self, tmp_path, *flags):
        pseudo = two_col_file(tmp_path, LABELED_SRC, LABELED_TAGS)
        return ["distill", "apply", "--pseudo", str(pseudo), "--teacher", str(pseudo),
                "--out", str(tmp_path / "out"), "--report", str(tmp_path / "report"), *flags]

    def pos_dist(self, tmp_path, *flags):
        lex = lexicon_file(tmp_path, LABELED_LEX_PAIRS)
        reference = two_col_file(tmp_path, LABELED_SRC, LABELED_TAGS)
        return ["report", "pos-dist", "--lexicon", str(lex), "--reference", str(reference),
                *flags]

    @pytest.mark.parametrize("command,usage,flags", [
        ("induce", "lex induce", ()),
        ("mono", "synth mono", ()),
        ("apply", "distill apply", ()),
        ("upsample", "mix upsample", ("--target-size", "3")),
        ("pos_dist", "report pos-dist", ()),
    ])
    def test_unknown_flag_shows_the_subcommands_usage(self, tmp_path, capsys, command, usage,
                                                      flags):
        argv = getattr(self, command)(tmp_path, *flags, "--threads", "2")
        inputs = set(tmp_path.iterdir())
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: lexsynth {usage} [-h] ")
        assert captured.err.endswith(
            f"lexsynth {usage}: error: unrecognized arguments: --threads 2\n")
        assert captured.out == ""
        assert set(tmp_path.iterdir()) == inputs  # no output, no temp file

    @pytest.mark.parametrize("command,flags", [
        ("induce", ("--threads", "2")),
        ("induce", ("--iterations", "0")),
        ("induce", ("--min-count", "0")),
        ("induce", ("--iterations", "two")),
        ("mono", ("--threads", "2")),
        ("mono", ("--limit", "-3")),
        ("labeled", ("--threads", "2")),
        ("upsample", ("--target-size", "0")),
        ("upsample", ("--target-size", "-5")),
    ])
    def test_rejected_with_exit_1_and_no_output(self, tmp_path, capsys, command, flags):
        argv = getattr(self, command)(tmp_path, *flags)
        inputs = set(tmp_path.iterdir())
        assert main(argv) == 1
        assert flags[0] in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == inputs  # no output, no temp file

    def test_mono_limit_zero_writes_empty_corpus(self, tmp_path):
        assert main(self.mono(tmp_path, "--limit", "0")) == 0
        assert (tmp_path / "out").read_text(encoding="utf-8") == ""

    def test_mono_limit_zero_still_needs_the_corpus(self, tmp_path, capsys):
        argv = self.mono(tmp_path, "--limit", "0")
        (tmp_path / "mono.txt").unlink()
        inputs = set(tmp_path.iterdir())
        assert main(argv) == 2
        assert "mono.txt" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == inputs  # no output, no temp file


class TestSameOutputPath:
    """Two outputs naming one file are a usage error, caught before any input
    is read: exit 1, nothing written, an existing target left as it was."""

    def induce(self, tmp_path, first, second):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text("the house\na house\n", encoding="utf-8")
        tgt.write_text("das haus\nein haus\n", encoding="utf-8")
        return ["lex", "induce", "--src", str(src), "--tgt", str(tgt),
                "--out", first, "--dump-alignments", second]

    def mono(self, tmp_path, first, second):
        lex = lexicon_file(tmp_path, [("a", "x")])
        corpus = tmp_path / "mono.txt"
        corpus.write_text("a\n" * 3, encoding="utf-8")
        return ["synth", "mono", "--corpus", str(corpus), "--lexicon", str(lex),
                "--out", first, "--report", second, "--seed", "1"]

    @pytest.mark.parametrize("command", ["induce", "mono"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_rejected_with_exit_1_and_no_output(self, tmp_path, capsys, command, existing):
        target = tmp_path / "x.out"
        if existing:
            target.write_text("kept\n", encoding="utf-8")
        # two spellings of one path
        argv = getattr(self, command)(tmp_path, str(target),
                                      str(tmp_path / "sub" / ".." / "x.out"))
        inputs = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(argv) == 1
        assert "x.out" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == inputs

    @pytest.mark.parametrize("command", ["induce", "mono"])
    def test_checked_before_inputs_are_read(self, tmp_path, command):
        target = str(tmp_path / "x.out")
        argv = getattr(self, command)(tmp_path, target, target)
        for path in tmp_path.iterdir():
            path.unlink()  # a missing input would otherwise exit 2
        assert main(argv) == 1
        assert not any(tmp_path.iterdir())


class TestUndecodableInput:
    """An input byte that is not UTF-8 is a data-format error: exit 2, a
    message naming the file and the bad byte's offset, no traceback and no
    output. One case per reader."""

    def argv(self, tmp_path, reader, bad):
        good = {
            "mono": tmp_path / "mono.txt",
            "lexicon": lexicon_file(tmp_path, [("a", "x")]),
            "labeled": two_col_file(tmp_path, "a b", "X Y"),
        }
        good["mono"].write_text("a b\nb a\n", encoding="utf-8")
        out = str(tmp_path / "out.txt")
        return {
            "read_mono": ["synth", "mono", "--corpus", bad, "--lexicon", str(good["lexicon"]),
                          "--out", out, "--seed", "1"],
            "read_parallel": ["lex", "induce", "--src", str(good["mono"]), "--tgt", bad,
                              "--out", out, "--dump-alignments", str(tmp_path / "al.txt")],
            "read_labeled": ["synth", "labeled", "--input", bad, "--format", "two-col",
                             "--schema", "pos", "--lexicon", str(good["lexicon"]),
                             "--out", out, "--seed", "1"],
            "sniff_format": ["distill", "apply", "--pseudo", bad,
                             "--teacher", str(good["labeled"]), "--out", out],
            "load_lexicon": ["synth", "mono", "--corpus", str(good["mono"]), "--lexicon", bad,
                             "--out", out, "--seed", "1"],
        }[reader]

    @pytest.mark.parametrize("reader", ["read_mono", "read_parallel", "read_labeled",
                                        "sniff_format", "load_lexicon"])
    def test_exit_2_naming_the_file_and_offset(self, tmp_path, capsys, reader):
        bad = tmp_path / "bad.txt"
        # a BOM, one good line, then 0xFF in the second line
        bad.write_bytes({"read_mono": b"\xef\xbb\xbfa b\nb\xffa\n",
                         "read_parallel": b"\xef\xbb\xbfx y\nz\xffy\n",
                         "load_lexicon": b"\xef\xbb\xbfa\tx\n\xff\tz\n"}.get(
                             reader, b"\xef\xbb\xbfa\tX\n\xffb\tY\n"))
        argv = self.argv(tmp_path, reader, str(bad))
        inputs = set(tmp_path.iterdir())
        assert main(argv) == 2
        err = capsys.readouterr().err
        offset = bad.read_bytes().index(b"\xff")
        assert f"{bad}: not valid UTF-8: byte 0xff at byte offset {offset}" in err
        assert "Traceback" not in err and "UnicodeDecodeError" not in err
        assert set(tmp_path.iterdir()) == inputs  # no output, no temp file


@pytest.fixture
def collector_state():
    """Give the test the cyclic collector enabled and restore its state after."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    """Each command runs with the cyclic collector paused; main leaves the
    collector as it found it, whatever the outcome."""

    def mono(self, tmp_path, *, corpus="mono.txt", seed=("--seed", "1")):
        lex = lexicon_file(tmp_path, [("a", "x")])
        (tmp_path / "mono.txt").write_text("a b\n", encoding="utf-8")
        return ["synth", "mono", "--corpus", str(tmp_path / corpus), "--lexicon", str(lex),
                "--out", str(tmp_path / "out.txt"), *seed]

    def scenario(self, name, tmp_path, monkeypatch):
        """(argv, expected exit code) of one outcome of a command."""
        if name == "ok":
            return self.mono(tmp_path), 0
        if name == "usage":
            return self.mono(tmp_path, seed=()), 1
        if name == "missing-file":
            return self.mono(tmp_path, corpus="nope.txt"), 2
        if name == "validation":
            pseudo = two_col_file(tmp_path, "a b", "X Y", "pseudo.tsv")
            teacher = two_col_file(tmp_path, "a c", "X Y", "teacher.tsv")
            return ["distill", "apply", "--pseudo", str(pseudo), "--teacher", str(teacher),
                    "--out", str(tmp_path / "out.tsv")], 3
        assert name == "crash"

        def crash(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli.synth, "synth_mono", crash)
        return self.mono(tmp_path), RuntimeError

    def test_paused_while_command_runs(self, tmp_path, monkeypatch, collector_state):
        seen = []
        real = cli.synth.synth_mono

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.synth, "synth_mono", spy)
        assert main(self.mono(tmp_path)) == 0
        assert seen == [False]
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "x b\n"

    @pytest.mark.parametrize("enabled_before", [True, False])
    @pytest.mark.parametrize("outcome", ["ok", "usage", "missing-file", "validation", "crash"])
    def test_state_restored(self, tmp_path, monkeypatch, collector_state,
                            outcome, enabled_before):
        argv, want = self.scenario(outcome, tmp_path, monkeypatch)
        if not enabled_before:
            gc.disable()
        if want is RuntimeError:
            with pytest.raises(RuntimeError, match="unexpected"):
                main(argv)
        else:
            assert main(argv) == want
        assert gc.isenabled() is enabled_before


def test_library_pipeline_makes_no_reference_cycles(tmp_path, collector_state):
    """Pausing the collector is safe only while the data path creates no
    cyclic garbage; a back-pointer added later would leak under the pause."""
    src, tgt = tmp_path / "v.src", tmp_path / "v.tgt"
    corpus_io.write_parallel(verse_corpus(200, seed=3), src, tgt)
    mono = tmp_path / "mono.txt"
    mono.write_text(MONO_SRC + "\n" + "the state of war\n", encoding="utf-8")
    conllu = tmp_path / "in.conllu"
    conllu.write_text(
        "# sent_id = 1\n"
        "1-2\tthe-war\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tthe\tthe\tDET\tDT\t_\t2\tdet\t_\t_\n"
        "2\twar\twar\tNOUN\tNN\t_\t0\troot\t_\tSpaceAfter=No\n"
        "2.1\tis\t_\t_\t_\t_\t_\t_\t_\t_\n\n",
        encoding="utf-8")
    two_col = two_col_file(tmp_path, LABELED_SRC, LABELED_TAGS)
    teacher = two_col_file(tmp_path, LABELED_WANT, DISTILLED_TAGS, "teacher.tsv")
    lex_path = lexicon_file(tmp_path, MONO_LEX_PAIRS + LABELED_LEX_PAIRS)

    gc.collect()
    gc.disable()
    cfg = AlignerConfig(iterations=3)
    corpus = corpus_io.read_parallel(src, tgt)
    forward = viterbi_align(corpus, train_model1(corpus, cfg))
    backward = viterbi_align(swap_corpus(corpus), train_model1(swap_corpus(corpus), cfg))
    combined = symmetrize(forward, backward, cfg.symmetrization)
    induced = induce_lexicon(corpus, combined, cfg)
    write_alignments(combined, tmp_path / "alignments.txt")
    save_lexicon(induced, tmp_path / "induced.tsv")
    base, _ = load_lexicon(lex_path)
    single, _ = load_lexicon(lex_path, LoadMode.SINGLE_TOKEN_ONLY)
    save_lexicon(merge(base, induced), tmp_path / "merged.tsv")

    gold = corpus_io.read_mono(mono)
    pseudo, _ = synth.synth_mono(gold, base, SynthesisConfig(seed=4))
    corpus_io.write_mono(pseudo, tmp_path / "pseudo.txt")
    upsampled = mix.upsample_to_match(gold, 5, seed=4)
    corpus_io.write_mono(mix.concat_shuffle([pseudo, upsampled], seed=4), tmp_path / "mix.txt")

    for path, fmt, teacher_path in ((conllu, Format.CONLLU, None),
                                    (two_col, Format.TWO_COL, teacher)):
        labeled = corpus_io.read_labeled(path, Schema.POS, fmt)
        pseudo_labeled, _ = synth.synth_labeled(labeled, single, SynthesisConfig(seed=5))
        predictions = (corpus_io.read_labeled(teacher_path, Schema.POS, fmt)
                       if teacher_path else pseudo_labeled)
        distilled, changed = apply_teacher_labels(pseudo_labeled, predictions)
        corpus_io.write_labeled(distilled, tmp_path / f"out.{fmt.value}", fmt)
        lexicon_pos_distribution(base, labeled)

    assert induced.entry_count() > 0 and changed == 2
    assert gc.collect() == 0


def test_commit_leaves_another_runs_temp_file_alone(tmp_path):
    lex = lexicon_file(tmp_path, [("a", "x")])
    corpus = tmp_path / "mono.txt"
    corpus.write_text("a\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    other = tmp_path / "out.txt.tmp~"  # as left mid-write by a concurrent run
    other.write_text("another run\n", encoding="utf-8")
    before = set(tmp_path.iterdir())
    assert main(["synth", "mono", "--corpus", str(corpus), "--lexicon", str(lex),
                 "--out", str(out), "--seed", "1"]) == 0
    assert out.read_text(encoding="utf-8") == "x\n"
    assert other.read_text(encoding="utf-8") == "another run\n"
    assert set(tmp_path.iterdir()) == before | {out}


@pytest.mark.parametrize("old_targets", [True, False])
def test_commit_restores_every_target_when_a_rename_fails(tmp_path, monkeypatch, old_targets):
    lex = lexicon_file(tmp_path, [("a", "x")])
    corpus = tmp_path / "mono.txt"
    corpus.write_text("a\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    report = tmp_path / "report.json"
    if old_targets:
        out.write_bytes(b"old out\n")
        report.write_bytes(b"old report\n")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == report and Path(src).name.endswith(".tmp~"):
            raise OSError("rename failed")  # the second output's rename
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main(["synth", "mono", "--corpus", str(corpus), "--lexicon", str(lex),
                 "--out", str(out), "--report", str(report), "--seed", "1"]) == 2
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("fails", [False, True])
def test_main_writes_what_the_command_names_once_it_returns(tmp_path, monkeypatch, fails):
    def command(args, out):
        out.add(args.out, lambda p: p.write_text("x\n", encoding="utf-8"))
        if fails:
            raise cli.ValidationError("late failure")

    monkeypatch.setattr(cli, "_cmd_mix_upsample", command)
    out = tmp_path / "out.txt"
    assert main(["mix", "upsample", "--gold", "unread.txt", "--target-size", "1",
                 "--out", str(out), "--seed", "1"]) == (3 if fails else 0)
    assert [p.name for p in tmp_path.iterdir()] == ([] if fails else ["out.txt"])


def test_commit_removes_a_temp_file_whose_write_failed(tmp_path):
    def write_then_fail(path):
        path.write_text("partial", encoding="utf-8")
        raise OSError("disk full")

    outputs = cli._Outputs()
    outputs.add(tmp_path / "out.txt", write_then_fail)
    with pytest.raises(OSError, match="disk full"):
        outputs.commit()
    assert list(tmp_path.iterdir()) == []


def test_commit_syncs_files_before_renames_and_directories_after(tmp_path, monkeypatch):
    calls = []  # ("fsync", inode) and ("replace", destination), in call order
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", Path(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    sub = tmp_path / "sub"
    sub.mkdir()
    first, second, third = tmp_path / "a.txt", sub / "b.txt", tmp_path / "c.txt"
    first.write_text("old", encoding="utf-8")
    outputs = cli._Outputs()
    for path in (first, second, third):
        outputs.add(path, lambda p, text=path.name: p.write_text(text, encoding="utf-8"))
    outputs.commit()

    inode = lambda path: path.stat().st_ino
    assert calls == [
        ("fsync", inode(first)), ("fsync", inode(second)), ("fsync", inode(third)),
        ("replace", first.with_name(f"a.txt.{os.getpid()}.old~")),
        ("replace", first), ("replace", second), ("replace", third),
        ("fsync", inode(tmp_path)), ("fsync", inode(sub)),
    ]
    assert [p.read_text(encoding="utf-8") for p in (first, second, third)] == [
        "a.txt", "b.txt", "c.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "c.txt", "sub"]


def test_induce_logs_each_directions_log_likelihood_curve(tmp_path):
    corpus = [(["the", "house"], ["das", "haus"]), (["the", "book"], ["das", "buch"])]
    corpus_io.write_parallel(corpus, tmp_path / "src.txt", tmp_path / "tgt.txt")
    proc = run_cli(["lex", "induce", "--src", str(tmp_path / "src.txt"),
                    "--tgt", str(tmp_path / "tgt.txt"), "--out", str(tmp_path / "out.tsv"),
                    "--iterations", "3"], text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    for name, direction in (("forward", corpus), ("backward", swap_corpus(corpus))):
        lls = train_model1(direction, AlignerConfig(iterations=3)).log_likelihoods
        assert f"{name} EM log-likelihoods: " + " ".join(f"{ll:.4f}" for ll in lls) in lines


def test_end_to_end_few_text_pipeline(tmp_path, capsys):
    """induce -> merge -> synth mono -> mix upsample -> mix concat, then a
    pipeline summary naming all five stages."""
    # toy parallel data (the verse corpus stand-in) and gold monolingual data
    src = tmp_path / "bible.src"
    tgt = tmp_path / "bible.tgt"
    src.write_text("the house\nthe book\na house\nthe house\nthe book\na house\n",
                   encoding="utf-8")
    tgt.write_text("das haus\ndas buch\nein haus\ndas haus\ndas buch\nein haus\n",
                   encoding="utf-8")
    gold_mono = tmp_path / "gold.txt"
    gold_mono.write_text("das haus\ndas buch\n", encoding="utf-8")
    base_lex = lexicon_file(tmp_path, [("house", "heim"), ("new", "neu")], "base.tsv")
    english = tmp_path / "english.txt"
    english.write_text("the new house\na book\n" * 3, encoding="utf-8")

    induced = tmp_path / "induced.tsv"
    merged = tmp_path / "merged.tsv"
    pseudo = tmp_path / "pseudo.txt"
    upsampled = tmp_path / "upsampled.txt"
    mixed = tmp_path / "mixed.txt"
    cov_report = tmp_path / "coverage.json"

    assert main(["lex", "induce", "--src", str(src), "--tgt", str(tgt),
                 "--out", str(induced), "--iterations", "10"]) == 0
    assert main(["lex", "merge", "--base", str(base_lex), "--extra", str(induced),
                 "--out", str(merged)]) == 0
    assert main(["synth", "mono", "--corpus", str(english), "--lexicon", str(merged),
                 "--out", str(pseudo), "--seed", "17", "--report", str(cov_report)]) == 0
    pseudo_size = len(pseudo.read_text(encoding="utf-8").splitlines())
    assert main(["mix", "upsample", "--gold", str(gold_mono),
                 "--target-size", str(pseudo_size), "--out", str(upsampled),
                 "--seed", "17"]) == 0
    assert main(["mix", "concat", "--inputs", str(pseudo), str(upsampled),
                 "--out", str(mixed), "--seed", "17", "--shuffle"]) == 0

    # base targets win order; induced entries extend coverage
    merged_text = merged.read_text(encoding="utf-8")
    assert merged_text.index("house\theim") < merged_text.index("house\thaus")
    first = pseudo.read_text(encoding="utf-8").splitlines()[0].split()
    assert first[0] == "das"          # induced entry for "the"
    assert first[1] == "neu"          # base entry for "new"
    assert first[2] in ("heim", "haus")  # merged candidates for "house"
    assert len(mixed.read_text(encoding="utf-8").splitlines()) == 2 * pseudo_size

    cov = json.loads(cov_report.read_text(encoding="utf-8"))
    summary = summary_json(pipeline_summary(
        [
            ("lex-induce", {"out": induced.name}),
            ("lex-merge", {"out": merged.name}),
            ("synth-mono", cov),
            ("mix-upsample", {"target_size": pseudo_size}),
            ("mix-concat", {"inputs": 2}),
        ],
        seeds=[17],
    ))
    for stage in ("lex-induce", "lex-merge", "synth-mono", "mix-upsample", "mix-concat"):
        assert stage in summary
