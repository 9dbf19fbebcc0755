import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LABELED_SRC,
    LABELED_TAGS,
    LABELED_WANT,
    MONO_SRC,
    MONO_WANT,
    TOKENS,
    build_lexicon,
    pos_corpus,
    random_labeled_sentence,
)
from draw_oracle import draw
from lexsynth import synth
from lexsynth.corpus_io import LabeledCorpus, LabeledSentence, MonoCorpus, Schema
from lexsynth.errors import ValidationError
from lexsynth.lexicon import Lexicon
from lexsynth.synth import (
    CoverageReport,
    SynthesisConfig,
    coverage,
    synth_labeled,
    synth_mono,
)


def reference_synth(sentences, lex, cfg):
    """Sentence by sentence, token by token: (output, coverage report).

    Sentence ``k`` draws with index ``k``; a multi-token target expands into
    its tokens.
    """
    out = []
    total = replaced = 0
    keys, covered = set(), set()
    for i, sentence in enumerate(sentences):
        row = []
        for j, token in enumerate(sentence):
            key = token.casefold()
            cands = lex.lookup(token)
            total += 1
            keys.add(key)
            if not cands:
                row.append(token)
                continue
            replaced += 1
            covered.add(key)
            row.extend(cands[draw(cfg.seed, i, j, len(cands))].target.split())
        out.append(row)
    report = CoverageReport(
        total_tokens=total,
        replaced_tokens=replaced,
        replacement_rate=replaced / total if total else 0.0,
        distinct_types=len(keys),
        covered_types=len(covered),
        sentences=len(sentences),
    )
    return out, report


def translate_one(sentence, lex, seed):
    """The synthesized tokens of a one-sentence corpus."""
    out, _ = synth_mono([sentence], lex, SynthesisConfig(seed=seed))
    return out[0]


class TestTranslateTokens:
    """Worked examples of translating the tokens of one sentence."""

    def test_worked_labeled_tokens(self):
        lex = build_lexicon([("I", "jien"), ("suspect", "iddubita"), ("the", "il")])
        got = translate_one(["I", "suspect", "the", "streets"], lex, seed=0)
        assert got == ["jien", "iddubita", "il", "streets"]

    def test_empty_lexicon_is_identity(self):
        sent = ["any", "words", "here", "."]
        assert translate_one(sent, Lexicon(), seed=9) == sent

    def test_ambiguous_draws_are_near_uniform(self):
        lex = build_lexicon([("x", "a"), ("x", "b")])
        out, _ = synth_mono([["x"]] * 10000, lex, SynthesisConfig(seed=123))
        counts = Counter(s[0] for s in out)
        assert 0.47 <= counts["a"] / 10000 <= 0.53
        assert 0.47 <= counts["b"] / 10000 <= 0.53

    def test_draws_vary_along_token_axis_too(self):
        lex = build_lexicon([("x", "a"), ("x", "b")])
        out = translate_one(["x"] * 10000, lex, seed=7)
        frac = Counter(out)["a"] / 10000
        assert 0.47 <= frac <= 0.53

    def test_multi_token_target_expands_in_place(self):
        lex = build_lexicon([("unnecessary", "bla bzonn")])
        got = translate_one(["so", "unnecessary", "!"], lex, seed=1)
        assert got == ["so", "bla", "bzonn", "!"]


class TestSynthMono:
    def test_worked_example(self, mono_lexicon):
        out, report = synth_mono([MONO_SRC.split()], mono_lexicon, SynthesisConfig(seed=42))
        assert " ".join(out[0]) == MONO_WANT
        assert report.replaced_tokens == 11
        assert report.total_tokens == 21

    def test_empty_corpus(self, mono_lexicon):
        out, report = synth_mono([], mono_lexicon, SynthesisConfig(seed=1))
        assert out == []
        assert report.total_tokens == 0
        assert report.replacement_rate == 0.0
        assert report.sentences == 0

    def test_same_seed_identical(self, mono_lexicon):
        corpus = [MONO_SRC.split()] * 50
        a, _ = synth_mono(corpus, mono_lexicon, SynthesisConfig(seed=11))
        b, _ = synth_mono(corpus, mono_lexicon, SynthesisConfig(seed=11))
        assert a == b

    def test_different_seeds_differ_with_ambiguity(self):
        lex = build_lexicon([("x", "a"), ("x", "b")])
        corpus = [["x"] * 8 for _ in range(10)]  # 80 two-way draws
        a, _ = synth_mono(corpus, lex, SynthesisConfig(seed=1))
        b, _ = synth_mono(corpus, lex, SynthesisConfig(seed=2))
        assert a != b

    def test_sentence_count_preserved_with_expansion(self):
        lex = build_lexicon([("a", "x y z")])
        corpus = [["a"], ["a", "a"], ["b"]]
        out, _ = synth_mono(corpus, lex, SynthesisConfig(seed=1))
        assert len(out) == 3
        assert out[0] == ["x", "y", "z"]


class TestSynthLabeled:
    def test_worked_example(self, labeled_lexicon, table2_pos_corpus):
        out, _ = synth_labeled(table2_pos_corpus, labeled_lexicon, SynthesisConfig(seed=4))
        sent = out.sentences[0]
        assert " ".join(sent.tokens) == LABELED_WANT
        assert sent.labels == LABELED_TAGS.split()

    def test_empty_lexicon_identity(self, table2_pos_corpus):
        out, report = synth_labeled(table2_pos_corpus, Lexicon(), SynthesisConfig(seed=1))
        assert out.sentences[0].tokens == LABELED_SRC.split()
        assert report.replaced_tokens == 0

    def test_multi_token_target_rejected_before_output(self, table2_pos_corpus):
        lex = build_lexicon([("unnecessary", "bla bzonn")])
        with pytest.raises(ValidationError, match="bla bzonn"):
            synth_labeled(table2_pos_corpus, lex, SynthesisConfig(seed=1))

    def test_dep_heads_untouched(self):
        lex = build_lexicon([("a", "x"), ("b", "y"), ("c", "z")])
        sent = LabeledSentence(["a", "b", "c"], Schema.DEP,
                               heads=[2, 0, 2], deprels=["nsubj", "root", "obj"])
        out, _ = synth_labeled(LabeledCorpus(Schema.DEP, [sent]), lex, SynthesisConfig(seed=1))
        got = out.sentences[0]
        assert got.tokens == ["x", "y", "z"]
        assert got.heads == [2, 0, 2]
        assert got.deprels == ["nsubj", "root", "obj"]

    def test_fuzzed_label_preservation(self, labeled_lexicon):
        rng = random.Random(77)
        for schema in Schema:
            sentences = [random_labeled_sentence(rng, schema) for _ in range(80)]
            corpus = LabeledCorpus(schema, sentences)
            out, _ = synth_labeled(corpus, labeled_lexicon, SynthesisConfig(seed=6))
            for before, after in zip(sentences, out.sentences):
                assert len(after.tokens) == len(before.tokens)
                assert after.labels == before.labels
                assert after.heads == before.heads
                assert after.deprels == before.deprels


class TestCoverage:
    def test_empty_lexicon_rate_zero(self):
        report = coverage([["a", "b"]], Lexicon())
        assert report.replacement_rate == 0.0

    def test_full_coverage_rate_one(self):
        lex = build_lexicon([("a", "x"), ("b", "y")])
        report = coverage([["a", "b"], ["B", "A"]], lex)
        assert report.replacement_rate == 1.0
        assert report.covered_types == report.distinct_types == 2

    def test_worked_example_counts(self, mono_lexicon):
        report = coverage([MONO_SRC.split()], mono_lexicon)
        assert report.total_tokens == 21
        assert report.replaced_tokens == 11
        assert report.replacement_rate == pytest.approx(11 / 21)
        assert report.sentences == 1

    def test_matches_synth_report(self, mono_lexicon):
        corpus = [MONO_SRC.split(), ["untranslatable", "words"], ["the", "state"]]
        _, from_synth = synth_mono(corpus, mono_lexicon, SynthesisConfig(seed=9))
        assert coverage(corpus, mono_lexicon) == from_synth

    def test_labeled_corpus_accepted(self, mono_lexicon, table2_pos_corpus):
        report = coverage(table2_pos_corpus, mono_lexicon)
        assert report.total_tokens == 17


words = st.sampled_from(["the", "of", "state", "Which", "it", "zzz", "UNKNOWN", "ta’"])


@given(st.lists(words, min_size=1, max_size=12), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_output_tokens_come_from_input_or_candidates(sentence, seed):
    lex = build_lexicon([("the", "il"), ("of", "ta’"), ("state", "stat"),
                         ("which", "lima"), ("it", "hi"), ("it", "hija")])
    out = translate_one(sentence, lex, seed)
    allowed = set(sentence)
    for token in sentence:
        for entry in lex.lookup(token):
            allowed.update(entry.target.split())
    assert set(out) <= allowed


@given(st.lists(st.lists(words, min_size=1, max_size=8), max_size=10), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_replacement_rate_is_exact(corpus, seed):
    lex = build_lexicon([("the", "il"), ("of", "ta’"), ("it", "hi")])
    _, report = synth_mono(corpus, lex, SynthesisConfig(seed=seed))
    positions = sum(len(s) for s in corpus)
    hits = sum(1 for s in corpus for t in s if t.casefold() in lex.entries)
    assert report.total_tokens == positions
    assert report.replaced_tokens == hits
    if positions:
        assert report.replacement_rate == hits / positions


# Sources with 1 to 7 candidates, some multi-token, looked up in several
# casings, next to words the lexicon does not cover.
DRAW_LEX = build_lexicon(
    [("x", t) for t in ("a", "b", "c", "d", "e", "f", "g")]
    + [("bb", "p q"), ("bb", "r"), ("bb", "s t u")]
    + [("one", "uno"), ("ħaġa", "thing"), ("two", "du e"), ("two", "zwei")]
)
DRAW_WORDS = ["x", "X", "Bb", "bb", "BB", "One", "ONE", "Ħaġa", "two", "Two", "zzz", "Nope", "."]


@given(
    seed=st.integers(-2**70, 2**70),
    corpus=st.lists(st.lists(st.sampled_from(DRAW_WORDS), max_size=400), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_picks_match_reference_draw(seed, corpus):
    cfg = SynthesisConfig(seed=seed)
    want = reference_synth(corpus, DRAW_LEX, cfg)
    for given_corpus in (corpus, MonoCorpus.of(corpus)):
        assert synth_mono(given_corpus, DRAW_LEX, cfg) == want


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 2**64, -2**70, 2**70])
def test_long_sentence_matches_reference_draw(seed):
    rng = random.Random(seed % 1000)
    sentence = [rng.choice(DRAW_WORDS) for _ in range(30_000)]
    corpus = [sentence, sentence[::-1]]
    cfg = SynthesisConfig(seed=seed)
    assert synth_mono(corpus, DRAW_LEX, cfg) == reference_synth(corpus, DRAW_LEX, cfg)


def _edge_corpus(n_sents, block, rng):
    """Random sentences (some empty) with multi-token picks and mixed case at
    the first and last position of the sentences either side of each block
    edge."""
    corpus = [[rng.choice(DRAW_WORDS) for _ in range(rng.randint(0, 7))] for _ in range(n_sents)]
    for edge in range(block, n_sents, block):
        corpus[edge - 1] = ["Bb", *corpus[edge - 1], "BB"]
        corpus[edge] = ["bb", *corpus[edge], "Two"]
    return corpus


@pytest.mark.parametrize("block", [None, 1, 3])
def test_blocked_core_matches_reference_loop(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(synth, "_BLOCK_SENTS", block)
    block = synth._BLOCK_SENTS
    n_sents = 2 * block + block // 2 + 2
    corpus = _edge_corpus(n_sents, block, random.Random(block))
    cfg = SynthesisConfig(seed=2**63 + 5)

    want, want_report = reference_synth(corpus, DRAW_LEX, cfg)
    got, report = synth_mono(corpus, DRAW_LEX, cfg)
    assert got == want
    assert report == want_report
    assert coverage(corpus, DRAW_LEX) == want_report

    single = build_lexicon((e.source, e.target) for e in DRAW_LEX.iter_entries()
                           if not e.is_multi_token)
    labeled = LabeledCorpus(Schema.POS, [
        LabeledSentence(s or ["."], Schema.POS, labels=["X"] * max(len(s), 1)) for s in corpus])
    tokens = [s.tokens for s in labeled.sentences]
    want, want_report = reference_synth(tokens, single, cfg)
    got, report = synth_labeled(labeled, single, cfg)
    assert [s.tokens for s in got.sentences] == want
    assert [s.labels for s in got.sentences] == [s.labels for s in labeled.sentences]
    assert report == want_report
    assert coverage(labeled, single) == want_report


def test_output_holds_one_line_per_sentence():
    # a multi-token target takes the source word's place in the line
    lex = build_lexicon([("a", "pp qq")])
    corpus = [["keep", "a"], ["a", "me"]]
    out, _ = synth_mono(corpus, lex, SynthesisConfig(seed=1))
    assert out == [["keep", "pp", "qq"], ["pp", "qq", "me"]]
    assert out.lines == ["keep pp qq", "pp qq me"]


def test_input_token_its_line_would_split_rejected():
    with pytest.raises(ValidationError, match="sentence 1, token 0: 'a b'"):
        synth_mono([["x"], ["a b"]], build_lexicon([("x", "y")]), SynthesisConfig(seed=1))


# Source words and their mixed-case spellings, next to words that are
# (almost always) not covered.
@st.composite
def single_token_case(draw):
    pairs = draw(st.lists(st.tuples(TOKENS, TOKENS), min_size=1, max_size=8))
    lex = Lexicon()
    for source, target in pairs:
        # Lexicon.add normalizes the padding away
        lex.add(source, draw(st.sampled_from(["", " ", "  "])) + target + " ")
    spellings = [f(s) for s, _ in pairs for f in (str, str.upper, str.lower, str.title)]
    word = st.sampled_from(spellings) | TOKENS
    corpus = draw(st.lists(st.lists(word, min_size=1, max_size=8), max_size=6))
    return lex, corpus


@given(single_token_case(), st.integers(-2**70, 2**70))
@settings(max_examples=200, deadline=None)
def test_labeled_tokens_equal_mono_tokens(case, seed):
    # synth_labeled calls the same core as synth_mono, which splits each
    # chosen target; a single-token target must split to itself.
    lex, corpus = case
    cfg = SynthesisConfig(seed=seed)
    labeled = LabeledCorpus(Schema.POS, [
        LabeledSentence(s, Schema.POS, labels=["X"] * len(s)) for s in corpus])
    got, report = synth_labeled(labeled, lex, cfg)
    assert ([s.tokens for s in got.sentences], report) == synth_mono(corpus, lex, cfg)
