"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import functools
import json
import random
import time
from collections import Counter

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
    build_lexicon,
    random_labeled_sentence,
    verse_corpus,
)
from em_oracle import NULL, brute_force_model1
from lexsynth.align import (
    NULL_WORD,
    AlignerConfig,
    SentenceAlignment,
    induce_lexicon,
    swap_corpus,
    symmetrize,
    train_model1,
    viterbi_align,
)
from lexsynth.cli import main
from lexsynth.corpus_io import (
    Format,
    LabeledCorpus,
    Schema,
    read_labeled,
    read_mono,
    read_parallel,
    write_labeled,
    write_mono,
    write_parallel,
)
from lexsynth.mix import concat_shuffle, upsample_to_match
from lexsynth.synth import SynthesisConfig, synth_labeled


def criterion(number, name, budget_seconds):
    """Wrap a test so it reports PASS/FAIL and enforces its runtime budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
                assert elapsed < budget_seconds, (
                    f"criterion {number} took {elapsed:.1f}s (budget {budget_seconds}s)"
                )
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)", flush=True)

        return wrapper

    return decorate


def write_lexicon_file(path, pairs):
    path.write_text("".join(f"{s}\t{t}\n" for s, t in pairs), encoding="utf-8")
    return path


@criterion(1, "table2-monolingual-reproduction", budget_seconds=1.0)
def test_criterion_1_mono_reproduction(tmp_path):
    lex = write_lexicon_file(tmp_path / "lex.tsv", MONO_LEX_PAIRS)
    corpus = tmp_path / "mono.txt"
    corpus.write_text(MONO_SRC + "\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["synth", "mono", "--corpus", str(corpus), "--lexicon", str(lex),
                 "--out", str(out), "--seed", "1"]) == 0
    assert out.read_text(encoding="utf-8") == MONO_WANT + "\n"


@criterion(2, "table2-labeled-and-distilled", budget_seconds=1.0)
def test_criterion_2_labeled_reproduction(tmp_path):
    lex = write_lexicon_file(tmp_path / "lex.tsv", LABELED_LEX_PAIRS)
    data = tmp_path / "pos.tsv"
    data.write_text(
        "".join(f"{t}\t{l}\n" for t, l in zip(LABELED_SRC.split(), LABELED_TAGS.split())),
        encoding="utf-8")
    pseudo = tmp_path / "pseudo.tsv"
    assert main(["synth", "labeled", "--input", str(data), "--format", "two-col",
                 "--schema", "pos", "--lexicon", str(lex), "--out", str(pseudo),
                 "--seed", "1"]) == 0
    lines = pseudo.read_text(encoding="utf-8").splitlines()
    assert [l.split("\t")[0] for l in lines] == LABELED_WANT.split()
    assert [l.split("\t")[1] for l in lines] == LABELED_TAGS.split()

    teacher = tmp_path / "teacher.tsv"
    teacher.write_text(
        "".join(f"{t}\t{l}\n" for t, l in zip(LABELED_WANT.split(), DISTILLED_TAGS.split())),
        encoding="utf-8")
    distilled = tmp_path / "distilled.tsv"
    assert main(["distill", "apply", "--pseudo", str(pseudo), "--teacher", str(teacher),
                 "--out", str(distilled)]) == 0
    got = [l.split("\t")[1] for l in distilled.read_text(encoding="utf-8").splitlines()]
    assert got == DISTILLED_TAGS.split()


@criterion(3, "em-oracle-equivalence", budget_seconds=5.0)
def test_criterion_3_oracle_equivalence():
    rng = random.Random(2024)
    for _ in range(20):
        src_vocab = [f"s{i}" for i in range(rng.randint(1, 5))]
        tgt_vocab = [f"t{i}" for i in range(rng.randint(1, 5))]
        corpus = [
            ([rng.choice(src_vocab) for _ in range(rng.randint(1, 4))],
             [rng.choice(tgt_vocab) for _ in range(rng.randint(1, 4))])
            for _ in range(rng.randint(1, 5))
        ]
        iterations = rng.randint(1, 5)
        reference, _ = brute_force_model1(corpus, iterations)
        table = train_model1(corpus, AlignerConfig(iterations=iterations))
        probs = table.probs()
        for e, row in reference.items():
            key = NULL_WORD if e == NULL else e
            for f, p in row.items():
                assert abs(probs[key].get(f, 0.0) - p) < 1e-8

    toy = [(["the", "house"], ["das", "haus"]),
           (["the", "book"], ["das", "buch"]),
           (["a", "house"], ["ein", "haus"])]
    table = train_model1(toy, AlignerConfig(iterations=10))
    assert table.prob("house", "haus") >= 0.9
    assert table.prob("the", "das") >= 0.9


@criterion(4, "em-properties", budget_seconds=10.0)
def test_criterion_4_em_properties():
    rng = random.Random(555)
    for _ in range(100):
        src_vocab = [f"s{i}" for i in range(rng.randint(1, 8))]
        tgt_vocab = [f"t{i}" for i in range(rng.randint(1, 8))]
        corpus = [
            ([rng.choice(src_vocab) for _ in range(rng.randint(1, 5))],
             [rng.choice(tgt_vocab) for _ in range(rng.randint(1, 5))])
            for _ in range(rng.randint(1, 8))
        ]
        iterations = rng.randint(1, 5)
        # normalization must hold after every M-step: training for each
        # prefix of the iteration count reproduces every intermediate table
        lls = None
        for upto in range(1, iterations + 1):
            table = train_model1(corpus, AlignerConfig(iterations=upto))
            for word, total in table.row_sums().items():
                assert abs(total - 1.0) < 1e-9
            lls = table.log_likelihoods
        for earlier, later in zip(lls, lls[1:]):
            assert later >= earlier - 1e-10


@criterion(5, "induction-threshold", budget_seconds=60.0)
def test_criterion_5_induction_threshold():
    # exhaustive toy checks of the count >= min_count rule
    rng = random.Random(31)
    for _ in range(40):
        corpus, alignments, counts = [], [], Counter()
        for _ in range(rng.randint(1, 6)):
            src = [f"s{rng.randint(0, 4)}" for _ in range(rng.randint(1, 4))]
            tgt = [f"t{rng.randint(0, 4)}" for _ in range(rng.randint(1, 4))]
            links = {(rng.randrange(len(src)), rng.randrange(len(tgt)))
                     for _ in range(rng.randint(0, 4))}
            for i, j in links:
                counts[(src[i], tgt[j])] += 1
            corpus.append((src, tgt))
            alignments.append(SentenceAlignment(frozenset(links), len(src), len(tgt)))
        for min_count in (1, 2, 3):
            lex = induce_lexicon(corpus, alignments, AlignerConfig(min_count=min_count))
            got = {(e.source, e.target) for e in lex.iter_entries()}
            assert got == {pair for pair, n in counts.items() if n >= min_count}

    # verse-scale fixture: induced size in the expected order of magnitude
    corpus = verse_corpus(5000, seed=20)
    cfg = AlignerConfig()  # defaults: 5 iterations, min_count 2, intersection
    forward = viterbi_align(corpus, train_model1(corpus, cfg))
    backward = viterbi_align(swap_corpus(corpus), train_model1(swap_corpus(corpus), cfg))
    lex = induce_lexicon(corpus, symmetrize(forward, backward), cfg)
    assert 500 <= lex.entry_count() <= 10000


@criterion(6, "label-preservation-fuzz", budget_seconds=5.0)
def test_criterion_6_label_preservation():
    lex = build_lexicon(
        [(f"w{i}", f"v{i}") for i in range(0, 300, 2)]
        + [(f"w{i}", f"u{i}") for i in range(0, 300, 4)]  # ambiguous entries
    )
    rng = random.Random(606)
    for schema in Schema:
        sentences = [random_labeled_sentence(rng, schema) for _ in range(334)]
        corpus = LabeledCorpus(schema, sentences)
        out, _ = synth_labeled(corpus, lex, SynthesisConfig(seed=99))
        assert len(out.sentences) == len(sentences)
        for before, after in zip(sentences, out.sentences):
            n = len(before.tokens)
            assert len(after.tokens) == n
            assert after.labels == before.labels
            assert after.heads == before.heads
            assert after.deprels == before.deprels
            if schema is Schema.DEP:
                assert all(0 <= h <= n for h in after.heads)


@criterion(7, "determinism", budget_seconds=30.0)
def test_criterion_7_determinism(tmp_path):
    lex = write_lexicon_file(
        tmp_path / "lex.tsv",
        [("x", "a"), ("x", "b"), ("y", "c"), ("y", "d"), ("z", "e")],
    )
    rng = random.Random(8)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "".join(" ".join(rng.choice("xyzw") for _ in range(12)) + "\n" for _ in range(20000)),
        encoding="utf-8")

    def run_mono(out, seed):
        assert main(["synth", "mono", "--corpus", str(corpus), "--lexicon", str(lex),
                     "--out", str(out), "--seed", str(seed)]) == 0
        return out.read_bytes()

    repeat_a = run_mono(tmp_path / "m1.txt", 5)
    repeat_b = run_mono(tmp_path / "m2.txt", 5)
    other_seed = run_mono(tmp_path / "m3.txt", 6)
    assert repeat_a == repeat_b
    assert repeat_a != other_seed  # >= 64 ambiguous two-way draws in this corpus

    labeled = tmp_path / "labeled.tsv"
    labeled.write_text(
        "".join(f"{t}\tT{i % 5}\n" for i, t in enumerate("x y z x y z x w".split())),
        encoding="utf-8")

    def run_labeled(out):
        assert main(["synth", "labeled", "--input", str(labeled), "--format", "two-col",
                     "--schema", "pos", "--lexicon", str(lex), "--out", str(out),
                     "--seed", "3"]) == 0
        return out.read_bytes()

    assert run_labeled(tmp_path / "l1.tsv") == run_labeled(tmp_path / "l2.tsv")

    gold = tmp_path / "gold.txt"
    gold.write_text("".join(f"g{i}\n" for i in range(70)), encoding="utf-8")

    def run_upsample(out):
        assert main(["mix", "upsample", "--gold", str(gold), "--target-size", "200",
                     "--out", str(out), "--seed", "12"]) == 0
        return out.read_bytes()

    assert run_upsample(tmp_path / "u1.txt") == run_upsample(tmp_path / "u2.txt")

    def run_concat(out):
        assert main(["mix", "concat", "--inputs", str(gold), str(gold), "--out", str(out),
                     "--seed", "12", "--shuffle"]) == 0
        return out.read_bytes()

    assert run_concat(tmp_path / "c1.txt") == run_concat(tmp_path / "c2.txt")

    src = tmp_path / "p.src"
    tgt = tmp_path / "p.tgt"
    pairs = verse_corpus(1500, seed=4)
    write_parallel(pairs, src, tgt)

    def run_induce(out):
        assert main(["lex", "induce", "--src", str(src), "--tgt", str(tgt),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    assert run_induce(tmp_path / "i1.tsv") == run_induce(tmp_path / "i2.tsv")


@criterion(8, "mixing-exactness", budget_seconds=10.0)
def test_criterion_8_mixing_exactness():
    gold = [[f"s{i}"] for i in range(6000)]
    out = upsample_to_match(gold, 200000, seed=44)
    assert len(out) == 200000
    multiplicities = Counter(s[0] for s in out)
    assert set(multiplicities.values()) == {33, 34}

    rng = random.Random(17)
    for _ in range(50):
        corpora = [
            [[f"t{rng.randint(0, 30)}" for _ in range(rng.randint(1, 5))]
             for _ in range(rng.randint(0, 40))]
            for _ in range(rng.randint(0, 4))
        ]
        mixed = concat_shuffle(corpora, seed=rng.randint(0, 10**9))
        flat = [s for c in corpora for s in c]
        assert sorted(mixed) == sorted(flat)


@criterion(9, "throughput-200k", budget_seconds=60.0)
def test_criterion_9_throughput(tmp_path):
    rng = random.Random(31)
    vocab = [f"w{i}" for i in range(12000)]
    corpus = tmp_path / "corpus.txt"
    with corpus.open("w", encoding="utf-8") as fh:
        for _ in range(200000):
            fh.write(" ".join(rng.choices(vocab, k=18)) + "\n")
    lex = write_lexicon_file(tmp_path / "lex.tsv", [(f"w{i}", f"x{i}") for i in range(5000)])
    out = tmp_path / "out.txt"
    started = time.perf_counter()
    assert main(["synth", "mono", "--corpus", str(corpus), "--lexicon", str(lex),
                 "--out", str(out), "--seed", "7"]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"synth mono took {elapsed:.1f}s"
    assert len(out.read_text(encoding="utf-8").splitlines()) == 200000


@criterion(10, "round-trips", budget_seconds=5.0)
def test_criterion_10_round_trips(tmp_path):
    mono = tmp_path / "m.txt"
    mono.write_text("the house\nta’ kbir ħafna\n.\n", encoding="utf-8")
    out = tmp_path / "m.out"
    write_mono(read_mono(mono), out)
    assert out.read_bytes() == mono.read_bytes()

    two_col = tmp_path / "t.tsv"
    two_col.write_text("I\tPRON\nsuspect\tVERB\n\nwar\tNOUN\n", encoding="utf-8")
    out = tmp_path / "t.out"
    write_labeled(read_labeled(two_col, Schema.POS), out, Format.TWO_COL)
    assert out.read_bytes() == two_col.read_bytes()

    src = tmp_path / "p.src"
    tgt = tmp_path / "p.tgt"
    src.write_text("a b\nc\n", encoding="utf-8")
    tgt.write_text("x\ny z\n", encoding="utf-8")
    out_src, out_tgt = tmp_path / "p2.src", tmp_path / "p2.tgt"
    write_parallel(read_parallel(src, tgt), out_src, out_tgt)
    assert out_src.read_bytes() == src.read_bytes()
    assert out_tgt.read_bytes() == tgt.read_bytes()

    conllu = tmp_path / "c.conllu"
    conllu.write_text(
        "# sent_id = 1\n"
        "1-2\tWe've\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tWe\twe\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n"
        "2\tsuspect\tsuspect\tVERB\tVBP\t_\t0\troot\t_\t_\n"
        "2.1\telided\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\tit\tit\tPRON\tPRP\t_\t2\tobj\t_\t_\n\n",
        encoding="utf-8")
    for schema in (Schema.POS, Schema.DEP):
        out = tmp_path / f"c.{schema.value}.out"
        write_labeled(read_labeled(conllu, schema, Format.CONLLU), out, Format.CONLLU)
        assert out.read_bytes() == conllu.read_bytes()
