import dataclasses
import random

import numpy as np
import pytest

from conftest import verse_corpus
from em_oracle import NULL, brute_force_model1, brute_force_viterbi
from lexsynth.align import (
    NULL_WORD,
    AlignerConfig,
    SentenceAlignment,
    Symmetrization,
    induce_lexicon,
    swap_corpus,
    symmetrize,
    train_model1,
    viterbi_align,
    write_alignments,
)
from lexsynth.align import model1
from lexsynth.align.model1 import TranslationTable, _slot_layout
from lexsynth.errors import ValidationError
from lexsynth.lexicon import Provenance

DISAMBIGUATION = [
    (["the", "house"], ["das", "haus"]),
    (["the", "book"], ["das", "buch"]),
    (["a", "house"], ["ein", "haus"]),
]

# a corpus token spelled like the NULL word
NULL_TOKEN_CORPUS = [(["<NULL>", "a"], ["x", "y"]), (["a"], ["y"])]


def random_corpus(rng, max_pairs=5, max_vocab=5, max_len=4):
    src_vocab = [f"s{i}" for i in range(rng.randint(1, max_vocab))]
    tgt_vocab = [f"t{i}" for i in range(rng.randint(1, max_vocab))]
    return [
        ([rng.choice(src_vocab) for _ in range(rng.randint(1, max_len))],
         [rng.choice(tgt_vocab) for _ in range(rng.randint(1, max_len))])
        for _ in range(rng.randint(1, max_pairs))
    ]


def assert_matches_oracle(corpus, iterations, atol=1e-8, ll_rel=None):
    t_ref, lls_ref = brute_force_model1(corpus, iterations)
    table = train_model1(corpus, AlignerConfig(iterations=iterations))
    probs = table.probs()
    for e, row in t_ref.items():
        key = NULL_WORD if e == NULL else e
        for f, p in row.items():
            assert probs[key][f] == pytest.approx(p, abs=atol)
    # no probability mass outside the oracle's support
    for e, row in probs.items():
        ref_row = t_ref[NULL if e == NULL_WORD else e]
        assert set(row) == set(ref_row)
    assert len(table.log_likelihoods) == len(lls_ref)
    for a, b in zip(lls_ref, table.log_likelihoods):
        if ll_rel is None:
            assert b == pytest.approx(a, abs=1e-8)
        else:
            assert b == pytest.approx(a, rel=ll_rel)


class TestTraining:
    def test_matches_oracle_on_randomized_corpora(self):
        rng = random.Random(1234)
        for _ in range(25):
            corpus = random_corpus(rng)
            assert_matches_oracle(corpus, rng.randint(1, 5))

    def test_disambiguation_corpus_concentrates(self):
        table = train_model1(DISAMBIGUATION, AlignerConfig(iterations=10))
        assert table.prob("house", "haus") >= 0.9
        assert table.prob("the", "das") >= 0.9

    def test_single_pair_is_deterministic_unit(self):
        table = train_model1([(["a"], ["b"])], AlignerConfig(iterations=3))
        assert table.prob("a", "b") == pytest.approx(1.0)
        assert table.prob(NULL_WORD, "b") == pytest.approx(1.0)

    def test_log_likelihood_monotone_and_rows_normalized(self):
        rng = random.Random(99)
        for _ in range(40):
            corpus = random_corpus(rng, max_pairs=6, max_vocab=8, max_len=5)
            iters = rng.randint(1, 6)
            table = train_model1(corpus, AlignerConfig(iterations=iters))
            lls = table.log_likelihoods
            for earlier, later in zip(lls, lls[1:]):
                assert later >= earlier - 1e-10
            for word, total in table.row_sums().items():
                assert total == pytest.approx(1.0, abs=1e-9)
            assert np.all(table._t >= 0.0) and np.all(table._t <= 1.0 + 1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            train_model1([], AlignerConfig())

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            train_model1([(["a"], [])], AlignerConfig())

    def test_case_folding_merges_types(self):
        corpus = [(["The", "house"], ["das", "haus"]), (["the", "book"], ["das", "buch"])]
        folded = train_model1(corpus, AlignerConfig(iterations=3))
        assert folded.prob("THE", "das") == folded.prob("the", "das") > 0
        raw = train_model1(corpus, AlignerConfig(iterations=3, case_fold=False))
        assert "The" in raw.src_words and "the" in raw.src_words

    def test_training_is_repeatable(self):
        a = train_model1(DISAMBIGUATION, AlignerConfig(iterations=7))
        b = train_model1(DISAMBIGUATION, AlignerConfig(iterations=7))
        assert np.array_equal(a._t, b._t)
        assert a.log_likelihoods == b.log_likelihoods

    def test_matches_oracle_across_chunks(self):
        # 2600 sentences span three 1024-sentence E-step chunks
        assert_matches_oracle(verse_corpus(2600, seed=8), 2, ll_rel=1e-12)

    def test_null_spelled_token_keeps_its_own_row(self):
        table = train_model1(NULL_TOKEN_CORPUS, AlignerConfig(iterations=3))
        assert table.src_words == [NULL_WORD, "<null>", "a"]
        assert table.src_id("<NULL>") == 0 and table.src_id("<null>") == 1
        assert_matches_oracle(NULL_TOKEN_CORPUS, 3)

    def test_null_spelled_token_rejected_without_folding(self):
        with pytest.raises(ValidationError, match="reserved"):
            train_model1(NULL_TOKEN_CORPUS, AlignerConfig(case_fold=False))


def make_table(rows, tgt_words):
    """Hand-built table for viterbi unit tests. rows: src word → {tgt: prob}."""
    src_words = [NULL_WORD] + [w for w in rows if w != NULL_WORD]
    tgt_index = {w: i for i, w in enumerate(tgt_words)}
    probs, keys = [], []
    for e, word in enumerate(src_words):
        for f, p in sorted((tgt_index[f], p) for f, p in rows.get(word, {}).items()):
            probs.append(p)
            keys.append(e * len(tgt_words) + f)
    return TranslationTable(
        case_fold=True,
        src_words=src_words, tgt_words=list(tgt_words), log_likelihoods=[0.0],
        _src_index={w: i for i, w in enumerate(src_words)},
        _tgt_index=tgt_index,
        _t=np.array(probs, dtype=np.float64),
        _keys=np.array(keys, dtype=np.int64),
    )


class TestViterbi:
    def test_trained_toy_links_house_haus(self):
        table = train_model1(DISAMBIGUATION, AlignerConfig(iterations=10))
        alignments = viterbi_align(DISAMBIGUATION, table)
        assert (1, 1) in alignments[0].links  # the house / das haus
        assert (1, 1) in alignments[2].links  # a house / ein haus

    def test_certain_source_attracts_every_target(self):
        table = make_table(
            {NULL_WORD: {"x": 0.1, "y": 0.1}, "a": {"x": 1.0, "y": 1.0}, "b": {}},
            ["x", "y"],
        )
        [alignment] = viterbi_align([(["b", "a"], ["x", "y"])], table)
        assert alignment.links == {(1, 0), (1, 1)}

    def test_null_dominant_leaves_unlinked(self):
        table = make_table({NULL_WORD: {"x": 0.9}, "a": {"x": 0.1}}, ["x"])
        [alignment] = viterbi_align([(["a"], ["x"])], table)
        assert alignment.links == frozenset()

    def test_null_loses_ties(self):
        table = make_table({NULL_WORD: {"x": 0.5}, "a": {"x": 0.5}}, ["x"])
        [alignment] = viterbi_align([(["a"], ["x"])], table)
        assert alignment.links == {(0, 0)}

    def test_tie_between_real_tokens_goes_to_lowest_index(self):
        table = make_table({NULL_WORD: {"x": 0.1}, "a": {"x": 0.4}, "b": {"x": 0.4}}, ["x"])
        [alignment] = viterbi_align([(["b", "a", "b"], ["x"])], table)
        assert alignment.links == {(0, 0)}

    def test_unknown_words_fall_back_to_tie_rule(self):
        table = make_table({NULL_WORD: {"x": 0.5}, "a": {"x": 0.5}}, ["x"])
        [alignment] = viterbi_align([(["novel"], ["unseen"])], table)
        assert alignment.links == {(0, 0)}  # all-zero probs: first real token wins

    def test_empty_sides_have_no_links(self):
        table = make_table({NULL_WORD: {"x": 0.5}, "a": {"x": 0.5}}, ["x"])
        assert viterbi_align([], table) == []
        alignments = viterbi_align([([], ["x"]), (["a"], [])], table)
        assert [(a.links, a.src_len, a.tgt_len) for a in alignments] == [
            (frozenset(), 0, 1), (frozenset(), 1, 0),
        ]
        [alone] = viterbi_align([(["a"], [])], table)  # no target token at all
        assert alone.links == frozenset()

    def assert_matches_oracle(self, corpus, table, rows):
        alignments = viterbi_align(corpus, table)
        assert [set(a.links) for a in alignments] == brute_force_viterbi(corpus, rows)
        assert [(a.src_len, a.tgt_len) for a in alignments] == [
            (len(src), len(tgt)) for src, tgt in corpus
        ]

    def test_matches_oracle_on_trained_tables(self):
        rng = random.Random(2024)
        for _ in range(30):
            corpus = random_corpus(rng, max_pairs=8, max_vocab=6, max_len=6)
            table = train_model1(corpus, AlignerConfig(iterations=rng.randint(1, 5)))
            # unseen words and case variants next to the training sentences
            probe = corpus + [
                ([w.upper() for w in src] + ["s99"], tgt + ["t99"]) for src, tgt in corpus
            ]
            self.assert_matches_oracle(probe, table, table.probs())

    def test_null_spelled_token_uses_its_own_row(self):
        for corpus in (NULL_TOKEN_CORPUS, swap_corpus(NULL_TOKEN_CORPUS)):
            table = train_model1(corpus, AlignerConfig(iterations=3))
            self.assert_matches_oracle(corpus, table, table.probs())
            assert [a.links for a in viterbi_align(corpus, table)] == [
                {(0, 0), (1, 1)}, {(0, 0)},
            ]

    def test_null_spelled_token_rejected_without_folding(self):
        table = train_model1([(["a"], ["x"])], AlignerConfig(case_fold=False))
        with pytest.raises(ValidationError, match="reserved"):
            viterbi_align([(["<NULL>", "a"], ["x"])], table)

    def test_matches_oracle_on_hand_built_tables_with_ties(self):
        rng = random.Random(77)
        levels = [0.0, 0.125, 0.25, 0.5]  # few distinct values, so many exact ties
        for _ in range(60):
            src_vocab = [f"s{i}" for i in range(rng.randint(1, 4))]
            tgt_vocab = [f"t{i}" for i in range(rng.randint(1, 4))]
            rows = {
                e: {f: rng.choice(levels) for f in tgt_vocab if rng.random() < 0.7}
                for e in [NULL_WORD] + src_vocab
            }
            table = make_table(rows, tgt_vocab)
            # "sx"/"tx" are unknown to the table; short vocabularies repeat tokens
            words_s = src_vocab + ["sx"]
            words_t = tgt_vocab + ["tx"]
            corpus = [
                ([rng.choice(words_s) for _ in range(rng.randint(0, 5))],
                 [rng.choice(words_t) for _ in range(rng.randint(0, 5))])
                for _ in range(rng.randint(1, 6))
            ]
            self.assert_matches_oracle(corpus, table, rows)


class TestLayoutReuse:
    """Viterbi on the corpus a table was trained on reuses the table's slot
    layout; any other corpus, even one of the same shape, gets its own."""

    @pytest.fixture
    def layout_builds(self, monkeypatch):
        calls = []
        build = model1._slot_layout

        def spy(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(model1, "_slot_layout", spy)
        return calls

    def assert_reuse_matches_rebuild_and_oracle(self, corpus, table, layout_builds):
        layout_builds.clear()
        reused = [a.links for a in viterbi_align(corpus, table)]
        assert not layout_builds
        rebuilt = viterbi_align(corpus, dataclasses.replace(table, _trained_on=None))
        assert len(layout_builds) == 1
        assert reused == [a.links for a in rebuilt] == brute_force_viterbi(corpus, table.probs())

    def test_training_corpus_reuses_the_layout(self, layout_builds):
        rng = random.Random(31)
        for _ in range(30):
            corpus = random_corpus(rng, max_pairs=8, max_vocab=6, max_len=6)
            table = train_model1(corpus, AlignerConfig(iterations=rng.randint(1, 5)))
            self.assert_reuse_matches_rebuild_and_oracle(corpus, table, layout_builds)

    def test_reuse_across_chunks_in_both_directions(self, layout_builds):
        corpus = verse_corpus(1500, seed=4)  # two 1024-sentence E-step chunks
        for direction in (corpus, swap_corpus(corpus)):
            table = train_model1(direction, AlignerConfig(iterations=2))
            self.assert_reuse_matches_rebuild_and_oracle(direction, table, layout_builds)

    def test_changed_token_rebuilds_the_layout(self, layout_builds):
        rng = random.Random(8)
        for _ in range(30):
            corpus = random_corpus(rng, max_pairs=6, max_vocab=5, max_len=5)
            table = train_model1(corpus, AlignerConfig(iterations=3))
            # the same list, changed in place: one target token becomes
            # another word of the vocabulary, so every length stays the same
            tgt = rng.choice(corpus)[1]
            others = sorted({w for _, t in corpus for w in t} - {tgt[0]})
            if not others:
                continue
            tgt[0] = rng.choice(others)
            layout_builds.clear()
            alignments = viterbi_align(corpus, table)
            assert len(layout_builds) == 1
            assert [a.links for a in alignments] == brute_force_viterbi(corpus, table.probs())
            # a table trained on the changed corpus reuses its own layout
            fresh = train_model1(corpus, AlignerConfig(iterations=3))
            self.assert_reuse_matches_rebuild_and_oracle(corpus, fresh, layout_builds)


def test_slot_layout_rejects_keys_past_63_bits():
    one = np.array([1], dtype=np.int64)
    ids = (one, one, one, np.array([0], dtype=np.int64))  # 2 slots: NULL and source id 1
    # 2 slots take 1 index bit, so 2 * n_tgt + 1 keys may use the other 62
    group_ptr, pair_keys, k_flat = _slot_layout(*ids, 2, 2**61 - 1)
    assert pair_keys.tolist() == [0, 2**61 - 1]
    assert k_flat.tolist() == [0, 1] and k_flat.dtype == np.int32
    with pytest.raises(ValidationError, match="2 slots"):
        _slot_layout(*ids, 2, 2**61)


class TestSymmetrize:
    def make(self, links, src_len=3, tgt_len=3):
        return SentenceAlignment(frozenset(links), src_len, tgt_len)

    def test_intersection(self):
        fwd = [self.make({(0, 0), (1, 1)})]
        bwd = [self.make({(0, 0)})]
        assert symmetrize(fwd, bwd)[0].links == {(0, 0)}

    def test_identical_sides_unchanged(self):
        fwd = [self.make({(0, 1), (2, 2)})]
        bwd = [self.make({(1, 0), (2, 2)})]
        assert symmetrize(fwd, bwd)[0].links == {(0, 1), (2, 2)}

    def test_disjoint_empty(self):
        fwd = [self.make({(0, 0)})]
        bwd = [self.make({(1, 1)})]
        assert symmetrize(fwd, bwd)[0].links == frozenset()

    def test_forward_backward_passthrough(self):
        fwd = [self.make({(0, 1)})]
        bwd = [self.make({(2, 0)})]
        assert symmetrize(fwd, bwd, Symmetrization.FORWARD)[0].links == {(0, 1)}
        assert symmetrize(fwd, bwd, Symmetrization.BACKWARD)[0].links == {(0, 2)}

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            symmetrize([self.make(set())], [])

    def test_sentence_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            symmetrize([self.make(set(), 3, 4)], [self.make(set(), 3, 4)])

    def test_intersection_is_subset_of_both(self):
        rng = random.Random(11)
        for _ in range(30):
            sl, tl = rng.randint(1, 5), rng.randint(1, 5)
            fwd_links = {(rng.randrange(sl), rng.randrange(tl)) for _ in range(rng.randint(0, 6))}
            bwd_links = {(rng.randrange(tl), rng.randrange(sl)) for _ in range(rng.randint(0, 6))}
            fwd = [SentenceAlignment(frozenset(fwd_links), sl, tl)]
            bwd = [SentenceAlignment(frozenset(bwd_links), tl, sl)]
            inter = symmetrize(fwd, bwd)[0].links
            assert inter <= fwd_links
            assert {(j, i) for i, j in inter} <= bwd_links


class TestInduce:
    def corpus_and_alignment(self):
        corpus = [
            (["house", "x"], ["haus", "y"]),
            (["house"], ["haus"]),
            (["house", "book"], ["haus", "buch"]),
        ]
        alignments = [
            SentenceAlignment(frozenset({(0, 0)}), 2, 2),
            SentenceAlignment(frozenset({(0, 0)}), 1, 1),
            SentenceAlignment(frozenset({(0, 0), (1, 1)}), 2, 2),
        ]
        return corpus, alignments

    def test_min_count_two_keeps_repeated_pairs_only(self):
        corpus, alignments = self.corpus_and_alignment()
        lex = induce_lexicon(corpus, alignments, AlignerConfig(min_count=2))
        assert {(e.source, e.target) for e in lex.iter_entries()} == {("house", "haus")}
        assert all(e.provenance is Provenance.INDUCED for e in lex.iter_entries())

    def test_min_count_one_keeps_all(self):
        corpus, alignments = self.corpus_and_alignment()
        lex = induce_lexicon(corpus, alignments, AlignerConfig(min_count=1))
        assert {(e.source, e.target) for e in lex.iter_entries()} == {
            ("house", "haus"), ("book", "buch"),
        }

    def test_threshold_is_exhaustive_on_random_toys(self):
        rng = random.Random(42)
        for _ in range(50):
            corpus, alignments, counts = [], [], {}
            for _ in range(rng.randint(1, 6)):
                src = [f"s{rng.randint(0, 4)}" for _ in range(rng.randint(1, 4))]
                tgt = [f"t{rng.randint(0, 4)}" for _ in range(rng.randint(1, 4))]
                links = {(rng.randrange(len(src)), rng.randrange(len(tgt)))
                         for _ in range(rng.randint(0, 4))}
                for i, j in links:
                    counts[(src[i], tgt[j])] = counts.get((src[i], tgt[j]), 0) + 1
                corpus.append((src, tgt))
                alignments.append(SentenceAlignment(frozenset(links), len(src), len(tgt)))
            min_count = rng.randint(1, 3)
            lex = induce_lexicon(corpus, alignments, AlignerConfig(min_count=min_count))
            got = {(e.source, e.target) for e in lex.iter_entries()}
            want = {pair for pair, n in counts.items() if n >= min_count}
            assert got == want

    def test_entries_ordered_by_count_then_lexicographic(self):
        corpus = [(["a", "b"], ["x", "y"])] * 3 + [(["c"], ["z"])] * 3
        alignments = (
            [SentenceAlignment(frozenset({(0, 0), (1, 1)}), 2, 2)] * 3
            + [SentenceAlignment(frozenset({(0, 0)}), 1, 1)] * 3
        )
        lex = induce_lexicon(corpus, alignments, AlignerConfig(min_count=2))
        assert [(e.source, e.target) for e in lex.iter_entries()] == [
            ("a", "x"), ("b", "y"), ("c", "z"),
        ]

    def test_punctuation_pairs_filtered_by_default(self):
        corpus = [([","], [","])] * 3
        alignments = [SentenceAlignment(frozenset({(0, 0)}), 1, 1)] * 3
        assert induce_lexicon(corpus, alignments, AlignerConfig()).entry_count() == 0
        kept = induce_lexicon(corpus, alignments, AlignerConfig(keep_punct=True))
        assert kept.entry_count() == 1

    def test_alignment_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            induce_lexicon([(["a"], ["b"])], [], AlignerConfig())

    def test_out_of_range_link_rejected(self):
        alignment = SentenceAlignment(frozenset({(1, 0)}), 2, 1)
        with pytest.raises(ValidationError):
            induce_lexicon([(["a"], ["b"])], [alignment], AlignerConfig())


def test_full_induction_pipeline_on_toy():
    corpus = DISAMBIGUATION * 2  # every link observed twice
    cfg = AlignerConfig(iterations=10)
    forward = viterbi_align(corpus, train_model1(corpus, cfg))
    backward = viterbi_align(swap_corpus(corpus), train_model1(swap_corpus(corpus), cfg))
    lex = induce_lexicon(corpus, symmetrize(forward, backward), cfg)
    pairs = {(e.source, e.target) for e in lex.iter_entries()}
    assert ("house", "haus") in pairs
    assert ("the", "das") in pairs


def test_write_alignments_format(tmp_path):
    alignments = [
        SentenceAlignment(frozenset({(1, 0), (0, 1)}), 2, 2),
        SentenceAlignment(frozenset(), 1, 1),
    ]
    path = tmp_path / "al.txt"
    write_alignments(alignments, path)
    assert path.read_text(encoding="utf-8") == "0-1 1-0\n\n"
