import dataclasses
import os
import random
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import link_oracle
from conftest import verse_corpus
from em_oracle import NULL, brute_force_model1, brute_force_viterbi
from lexsynth.align import (
    NULL_WORD,
    AlignerConfig,
    Alignments,
    EncodedCorpus,
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
from lexsynth.align.model1 import TranslationTable, _chunk_layouts
from lexsynth.corpus_io import MonoCorpus, ParallelPairs, read_parallel
from lexsynth.errors import ValidationError
from lexsynth.lexicon import Lexicon, Provenance

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

    @pytest.mark.parametrize("corpus", [
        [(["a"], ["x"]), ([], ["y"])],
        [(["a"], ["x"]), (["b"], []), ([], [])],
        ParallelPairs(MonoCorpus(["a", "b c"]), MonoCorpus(["x", ""])),
    ])
    def test_empty_side_names_the_first_such_pair(self, corpus):
        with pytest.raises(ValidationError, match="parallel pair 1 has an empty side"):
            train_model1(corpus, AlignerConfig())

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

    def test_estep_runs_through_the_kernel_attribute_once_per_chunk(self, monkeypatch):
        # the benchmark's tracer times the E-step by wrapping this attribute
        corpus = verse_corpus(1500)  # two 1024-sentence chunks
        plain = train_model1(corpus, AlignerConfig(iterations=2))
        calls = []
        estep = model1._DEFAULT_KERNEL.estep_chunk

        def counted(*args):
            calls.append(len(args[2]) - 1)  # groups in the chunk
            return estep(*args)

        monkeypatch.setattr(model1._DEFAULT_KERNEL, "estep_chunk", counted)
        wrapped = train_model1(corpus, AlignerConfig(iterations=2))
        assert len(calls) == 2 * 2
        assert calls[:2] == calls[2:] and sum(calls[:2]) == sum(len(t) for _, t in corpus)
        assert np.array_equal(wrapped._t, plain._t) and np.array_equal(wrapped._keys, plain._keys)
        assert wrapped.log_likelihoods == plain.log_likelihoods


def test_row_sums_of_rows_without_pairs_are_zero():
    table = make_table({"a": {"x": 1.0}, "b": {}, "c": {"y": 1.0}}, ["x", "y"])
    assert table.row_sums() == {NULL_WORD: 0.0, "a": 1.0, "b": 0.0, "c": 1.0}
    # empty rows at the end of the table
    table = make_table({"a": {"x": 1.0}, "b": {}}, ["x", "y"])
    assert table.row_sums() == {NULL_WORD: 0.0, "a": 1.0, "b": 0.0}


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
        assert len(viterbi_align([], table)) == 0
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
        build = model1._chunk_layouts

        def spy(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(model1, "_chunk_layouts", spy)
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


def test_renamed_types_with_the_same_ids_rebuild_the_layout():
    # every source word renamed: the type ids are the training corpus's, the
    # types are not, so the table's layout must not be reused
    corpus = DISAMBIGUATION * 2
    table = train_model1(corpus, AlignerConfig(iterations=3))
    renamed = [([w + "2" for w in src], tgt) for src, tgt in corpus]
    assert np.array_equal(EncodedCorpus.of(renamed).src.flat, table._trained_on[0].src.flat)
    links = [a.links for a in viterbi_align(renamed, table)]
    assert links == brute_force_viterbi(renamed, table.probs()) == [set()] * len(corpus)


def test_chunk_layout_accepts_any_key_space_and_rejects_oversized_chunks():
    one = np.array([1], dtype=np.int64)
    ids = (one, one, one, np.array([0], dtype=np.int64))  # 2 slots: NULL and source id 1
    # any key space whose pair keys fit int64 lays out
    for n_tgt in (2**61 - 1, 2**61, 2**62):
        (group_ptr, pair_keys, local), = _chunk_layouts(*ids, n_tgt)
        assert group_ptr.tolist() == [0, 2]
        assert pair_keys.tolist() == [0, n_tgt]
        assert local.tolist() == [0, 1] and local.dtype == np.int32
    # one sentence of 2**16 source and 2**15 target tokens: 2**15 * (2**16 + 1)
    # slots exceed the int32 local index; rejected before any slot is made
    src_lens = np.array([2**16], dtype=np.int64)
    tgt_lens = np.array([2**15], dtype=np.int64)
    ids = (src_lens, np.ones(2**16, dtype=np.int64), tgt_lens, np.zeros(2**15, dtype=np.int64))
    with pytest.raises(ValidationError, match="2147516416 slots"):
        next(_chunk_layouts(*ids, 1))


def reference_layouts(src_lens, src_flat, tgt_lens, tgt_flat, n_tgt, src_map, tgt_map, chunk):
    """``_chunk_layouts`` from per-sentence loops and ``np.unique``."""
    s_ptr = np.concatenate([[0], np.cumsum(src_lens)])
    t_ptr = np.concatenate([[0], np.cumsum(tgt_lens)])
    layouts = []
    for lo in range(0, max(len(src_lens), 1), chunk):
        widths, keys = [], []
        for k in range(lo, min(lo + chunk, len(src_lens))):
            src = [0] + [e if src_map is None else src_map[e] for e in src_flat[s_ptr[k]:s_ptr[k + 1]]]
            for f in tgt_flat[t_ptr[k]:t_ptr[k + 1]]:
                f = f if tgt_map is None else tgt_map[f]
                widths.append(len(src))
                keys += [-1 if e < 0 or f < 0 else int(e) * n_tgt + int(f) for e in src]
        pair_keys, local = np.unique(np.array(keys, dtype=np.int64), return_inverse=True)
        layouts.append((np.concatenate([[0], np.cumsum(widths)]), pair_keys, local))
    return layouts


@st.composite
def layout_inputs(draw):
    n_sents = draw(st.integers(0, 7))
    src_lens = draw(st.lists(st.integers(0, 4), min_size=n_sents, max_size=n_sents))
    tgt_lens = draw(st.lists(st.integers(0, 4), min_size=n_sents, max_size=n_sents))
    n_src_ids, n_tgt_ids = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    src_flat = draw(st.lists(st.integers(0, n_src_ids - 1), min_size=sum(src_lens),
                             max_size=sum(src_lens)))
    tgt_flat = draw(st.lists(st.integers(0, n_tgt_ids - 1), min_size=sum(tgt_lens),
                             max_size=sum(tgt_lens)))
    src_map = tgt_map = None
    n_tgt = n_tgt_ids
    if draw(st.booleans()):  # ids mapped to a table's, -1 for a word it lacks
        n_tgt = draw(st.integers(1, 8))
        src_map = draw(st.lists(st.integers(-1, 7), min_size=n_src_ids, max_size=n_src_ids))
        tgt_map = draw(st.lists(st.integers(-1, n_tgt - 1), min_size=n_tgt_ids,
                                max_size=n_tgt_ids))
    n_tgt = draw(st.sampled_from([n_tgt, n_tgt + 3, 2**40]))
    ids = [np.array(x, dtype=np.int64) for x in (src_lens, src_flat, tgt_lens, tgt_flat)]
    maps = [None if m is None else np.array(m, dtype=np.int64) for m in (src_map, tgt_map)]
    return ids, n_tgt, maps


# 63 is the int64 word; with 9 bits the keys of the larger of these small
# corpora do not fit beside their index bits and go to np.unique
PACK_BITS = st.sampled_from([63, 9])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**12), max_size=64), st.sampled_from([63, 8]))
def test_unique_inverse_matches_np_unique(values, pack_bits):
    # at most 6 index bits: with 8 bits, lists holding a value of 4 or more
    # go to np.unique
    values = np.array(values, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model1, "_PACK_BITS", pack_bits)
        distinct, inverse = model1._unique_inverse(values.copy())
    expected, expected_inverse = np.unique(values, return_inverse=True)
    assert distinct.tolist() == expected.tolist()
    assert inverse.dtype == np.int32 and inverse.tolist() == expected_inverse.tolist()


@settings(max_examples=150, deadline=None)
@given(layout_inputs(), st.integers(1, 4), PACK_BITS)
def test_chunk_layouts_match_numpy_reference(inputs, chunk, pack_bits):
    ids, n_tgt, maps = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model1, "_CHUNK_SENTS", chunk)
        mp.setattr(model1, "_PACK_BITS", pack_bits)
        layouts = list(_chunk_layouts(*ids, n_tgt, *maps))
    expected = reference_layouts(*ids, n_tgt, *maps, chunk)
    assert len(layouts) == len(expected)
    for (group_ptr, pair_keys, local), (ref_ptr, ref_keys, ref_local) in zip(layouts, expected):
        assert group_ptr.tolist() == ref_ptr.tolist()
        assert pair_keys.tolist() == ref_keys.tolist()
        assert local.dtype == np.int32 and local.tolist() == ref_local.tolist()


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4), PACK_BITS)
def test_merged_table_keys_and_chunk_pairs_match_numpy_reference(rng, chunk, pack_bits):
    corpus = EncodedCorpus.of(random_corpus(rng, max_pairs=8, max_vocab=6, max_len=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model1, "_CHUNK_SENTS", chunk)
        mp.setattr(model1, "_PACK_BITS", pack_bits)
        table = train_model1(corpus, AlignerConfig(iterations=1))
    src, tgt = corpus.src, corpus.tgt
    rows = np.arange(1, len(src.types) + 1)
    expected = reference_layouts(src.lens, src.flat, tgt.lens, tgt.flat, len(tgt.types),
                                 rows, None, chunk)
    keys = np.unique(np.concatenate([k for _, k, _ in expected]))
    assert table._keys.tolist() == keys.tolist()
    chunks = table._trained_on[1]
    assert len(chunks) == len(expected)
    for (_, pairs, _), (_, ref_keys, _) in zip(chunks, expected):
        assert pairs.tolist() == np.searchsorted(keys, ref_keys).tolist()


def test_np_unique_fallback_trains_and_aligns_as_the_packed_sort():
    # With 20 bits no chunk's slot keys and no merge fit beside their index
    # bits, so each goes to np.unique; with 63, none does.
    corpus = EncodedCorpus.of(verse_corpus(1500, seed=4))  # two 1024-sentence chunks
    cfg = AlignerConfig(iterations=2)
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return unique(*args, **kwargs)

    for direction in (corpus, corpus.swapped()):
        runs = []
        for pack_bits, expected_calls in ((63, 0), (20, 3)):
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(np, "unique", counted)
                mp.setattr(model1, "_PACK_BITS", pack_bits)
                table = train_model1(direction, cfg)
                runs.append((table, viterbi_align(direction, table)))
            assert len(calls) == expected_calls  # two chunks and the merge
        (packed, packed_links), (fallback, fallback_links) = runs
        assert np.array_equal(fallback._t, packed._t)
        assert np.array_equal(fallback._keys, packed._keys)
        assert np.array_equal(fallback_links.keys, packed_links.keys)


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


# case variants ("ß" and "SS" both fold to "ss") and lone punctuation
WORDS = ["a", "A", "b", "ß", "SS", ",", "."]


@st.composite
def aligned_corpora(draw):
    """A corpus with forward and backward links per sentence; sides may be
    empty, so some sentences are 0 x n or n x 0."""
    corpus, forward, backward = [], [], []
    for _ in range(draw(st.integers(0, 6))):
        src = draw(st.lists(st.sampled_from(WORDS), max_size=3))
        tgt = draw(st.lists(st.sampled_from(WORDS), max_size=3))
        cells = [(i, j) for i in range(len(src)) for j in range(len(tgt))]
        links = st.sets(st.sampled_from(cells)) if cells else st.just(set())
        corpus.append((src, tgt))
        forward.append((draw(links), len(src), len(tgt)))
        backward.append(({(j, i) for i, j in draw(links)}, len(tgt), len(src)))
    return corpus, forward, backward


def sentence_alignments(triples):
    return [SentenceAlignment(frozenset(links), s, t) for links, s, t in triples]


@given(aligned_corpora(), st.sampled_from(list(Symmetrization)), st.integers(1, 3),
       st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_columnar_links_match_the_link_oracle(tmp_path_factory, data, method, min_count,
                                              case_fold, keep_punct, columnar):
    corpus, forward, backward = data
    fwd, bwd = sentence_alignments(forward), sentence_alignments(backward)
    if columnar:
        fwd, bwd = Alignments.of(fwd), Alignments.of(bwd)
    combined = symmetrize(fwd, bwd, method)
    want = link_oracle.symmetrize(forward, backward, method.value)
    assert [(a.links, a.src_len, a.tgt_len) for a in combined] == want
    links = [links for links, _, _ in want]

    given_links = combined if columnar else list(combined)
    cfg = AlignerConfig(min_count=min_count, case_fold=case_fold, keep_punct=keep_punct)
    lex = induce_lexicon(corpus, given_links, cfg)
    want_lex = Lexicon()
    for s, t in link_oracle.induce_pairs(corpus, links, min_count, case_fold, keep_punct):
        want_lex.add(s, t, Provenance.INDUCED)
    assert list(lex.iter_entries()) == list(want_lex.iter_entries())

    path = tmp_path_factory.mktemp("al") / "al.txt"
    write_alignments(given_links, path)
    assert path.read_text(encoding="utf-8") == link_oracle.alignment_text(links)


training_corpora = st.lists(
    st.tuples(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
              st.lists(st.sampled_from(WORDS), min_size=1, max_size=4)),
    min_size=1, max_size=6)


@given(training_corpora, st.booleans())
@settings(max_examples=100, deadline=None)
def test_encoded_corpus_gives_the_plain_corpus_results(corpus, case_fold):
    """Training, Viterbi and induction give the same results on an
    ``EncodedCorpus`` and its ``swapped()`` as on the plain list and the
    ``swap_corpus`` list, also when the encoding was folded otherwise."""
    cfg = AlignerConfig(iterations=3, min_count=1, case_fold=case_fold, keep_punct=True)
    encoded = EncodedCorpus.of(corpus, case_fold)
    assert EncodedCorpus.of(encoded, case_fold) is encoded
    folded_otherwise = EncodedCorpus.of(corpus, not case_fold)
    for plain, enc, other in ((corpus, encoded, folded_otherwise),
                              (swap_corpus(corpus), encoded.swapped(),
                               folded_otherwise.swapped())):
        assert list(enc) == plain and len(enc) == len(plain)
        want = train_model1(plain, cfg)
        want_links = viterbi_align(plain, want)
        want_lex = induce_lexicon(plain, want_links, cfg)
        for given_corpus in (enc, other):
            table = train_model1(given_corpus, cfg)
            assert np.array_equal(table._t, want._t)
            assert np.array_equal(table._keys, want._keys)
            assert table.log_likelihoods == want.log_likelihoods
            assert table.src_words == want.src_words and table.tgt_words == want.tgt_words
            untrained = dataclasses.replace(table, _trained_on=None)  # rebuilds the layout
            for links in (viterbi_align(given_corpus, table), viterbi_align(given_corpus, want),
                          viterbi_align(given_corpus, untrained)):
                assert np.array_equal(links.keys, want_links.keys)
                assert np.array_equal(links.src_lens, want_links.src_lens)
                assert np.array_equal(links.tgt_lens, want_links.tgt_lens)
            assert induce_lexicon(given_corpus, want_links, cfg) == want_lex


class TestEncodedCorpusLines:
    """An ``EncodedCorpus`` holds each side's lines (tokens joined by single
    spaces) beside its ids, and shares them with the corpus it was made of."""

    def test_shares_the_lines_of_read_parallel(self, tmp_path):
        (tmp_path / "s.txt").write_text("The  house\na\tbook\n\nx\n", encoding="utf-8")
        (tmp_path / "t.txt").write_text("das haus\nein buch\ny\n \n", encoding="utf-8")
        pairs = read_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
        encoded = EncodedCorpus.of(pairs)
        assert encoded.src.lines is pairs.src.lines
        assert encoded.tgt.lines is pairs.tgt.lines
        assert encoded.src.lines == ["The house", "a book"]
        assert encoded.src.types == ["the", "house", "a", "book"]
        assert encoded.src.flat.tolist() == [0, 1, 2, 3]
        assert encoded.src.lens.tolist() == [2, 2]
        swapped = encoded.swapped()
        assert swapped.src is encoded.tgt and swapped.tgt is encoded.src
        assert swapped.src.lines is pairs.tgt.lines
        assert swapped.tgt.lines is pairs.src.lines
        assert list(swapped) == [(["das", "haus"], ["The", "house"]),
                                 (["ein", "buch"], ["a", "book"])]
        # folded otherwise: encoded again, from the same lines
        raw = EncodedCorpus.of(encoded, case_fold=False)
        assert raw.src.lines is pairs.src.lines and raw.tgt.lines is pairs.tgt.lines
        assert raw.src.types == ["The", "house", "a", "book"]

    def test_items_are_split_from_the_lines(self):
        encoded = EncodedCorpus.of([(["a", "b"], ["x"]), (["c"], ["y", "z"])])
        assert encoded.src.lines == ["a b", "c"] and encoded.tgt.lines == ["x", "y z"]
        assert len(encoded) == 2
        assert encoded[1] == (["c"], ["y", "z"]) and encoded[-2] == (["a", "b"], ["x"])
        assert list(encoded[1:]) == [(["c"], ["y", "z"])]
        with pytest.raises(IndexError):
            encoded[2]

    def test_lengths_and_ids_follow_how_each_line_splits(self):
        # lines made by hand may hold other whitespace than single spaces
        pairs = ParallelPairs(MonoCorpus(["a\tb  a", " "]), MonoCorpus(["x", "y"]))
        encoded = EncodedCorpus.of(pairs)
        assert encoded.src.lens.tolist() == [3, 0]
        assert encoded.src.flat.tolist() == [0, 1, 0]
        assert list(encoded) == list(pairs) == [(["a", "b", "a"], ["x"]), ([], ["y"])]

    @pytest.mark.parametrize("corpus,where", [
        ([(["a"], ["x"]), (["b", ""], ["y"])], "sentence 1, token 1: ''"),
        ([(["a"], ["x"]), (["b"], ["y", "a b"])], "sentence 1, token 1: 'a b'"),
        ([(["a\u2028"], ["x"])], "sentence 0, token 0: 'a\\u2028'"),
    ])
    def test_a_token_a_line_cannot_hold_is_rejected(self, corpus, where):
        with pytest.raises(ValidationError, match=re.escape(where)):
            EncodedCorpus.of(corpus)
        with pytest.raises(ValidationError, match=re.escape(where)):
            train_model1(corpus)


def slices(n):
    """Every slice of a sequence of length ``n``, up to steps of 3."""
    bounds = [None, *range(-n - 1, n + 2)]
    for step in (None, 1, 2, 3, -1, -2, -3):
        for start in bounds:
            for stop in bounds:
                yield slice(start, stop, step)


side_tokens = st.lists(st.sampled_from(WORDS), max_size=3)  # [] is a blank line


@given(st.lists(st.tuples(side_tokens, side_tokens), max_size=5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_encoded_corpus_is_the_parallel_pairs_it_encodes(rows, case_fold):
    """``EncodedCorpus.of`` a corpus read by ``read_parallel``, and its
    ``swapped()``, have the length, items, slices, iteration, ``==``,
    ``repr`` and ``dropped`` of the ``ParallelPairs`` they came from,
    whatever the folding."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "s.txt"), os.path.join(tmp, "t.txt")]
        for path, side in zip(paths, ([s for s, _ in rows], [t for _, t in rows])):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(" ".join(tokens) + "\n" for tokens in side)
        pairs = read_parallel(*paths)
    assert pairs.dropped == tuple(k for k, (s, t) in enumerate(rows) if not (s and t))
    encoded = EncodedCorpus.of(pairs, case_fold)
    assert EncodedCorpus.of(pairs, not case_fold) == encoded
    for enc, plain in ((encoded, pairs),
                       (encoded.swapped(), ParallelPairs(pairs.tgt, pairs.src, pairs.dropped))):
        n = len(plain)
        assert len(enc) == n
        for k in range(-n, n):
            assert type(enc[k]) is tuple and enc[k] == plain[k]
        for k in slices(n):
            part, want = enc[k], plain[k]
            assert type(part) is ParallelPairs
            assert type(part.src) is MonoCorpus and type(part.tgt) is MonoCorpus
            assert part == want and repr(part) == repr(want)
        assert list(enc) == list(plain)
        assert enc == plain and plain == enc and repr(enc) == repr(plain)
        assert enc.dropped == plain.dropped


@st.composite
def sentence_alignment_views(draw):
    src_len, tgt_len = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    cells = [(i, j) for i in range(src_len) for j in range(tgt_len)]
    links = draw(st.frozensets(st.sampled_from(cells))) if cells else frozenset()
    return SentenceAlignment(links, src_len, tgt_len)


@given(st.lists(sentence_alignment_views(), max_size=8), st.data())
@settings(max_examples=100, deadline=None)
def test_a_slice_of_alignments_is_the_alignments_of_its_sentences(views, data):
    al = Alignments.of(views)
    for _ in range(5):
        k = data.draw(st.slices(len(views)))
        part = al[k]
        assert type(part) is Alignments
        assert list(part) == list(al)[k] == views[k]
        assert np.array_equal(part.keys, Alignments.of(views[k]).keys)


class TestAlignments:
    VIEWS = [
        SentenceAlignment(frozenset({(0, 1), (1, 0)}), 2, 2),
        SentenceAlignment(frozenset(), 0, 3),
        SentenceAlignment(frozenset({(2, 0)}), 3, 1),
        SentenceAlignment(frozenset(), 2, 0),
        SentenceAlignment(frozenset({(0, 0), (0, 2)}), 1, 3),
    ]

    def test_of_round_trips(self):
        al = Alignments.of(self.VIEWS)
        assert Alignments.of(al) is al
        assert len(al) == 5
        assert list(al) == self.VIEWS
        assert [al[k] for k in range(5)] == self.VIEWS
        sent, i, j = al.links()
        assert list(zip(sent.tolist(), i.tolist(), j.tolist())) == [
            (0, 0, 1), (0, 1, 0), (2, 2, 0), (4, 0, 0), (4, 0, 2),
        ]
        assert len(Alignments.of([])) == 0

    def test_negative_and_past_the_end_indexes(self):
        al = Alignments.of(self.VIEWS)
        assert al[-1] == self.VIEWS[-1]
        assert al[-5] == self.VIEWS[0]
        for k in (5, -6):
            with pytest.raises(IndexError):
                al[k]

    def test_symmetrize_messages_name_the_first_mismatch(self):
        fwd = [SentenceAlignment(frozenset(), 3, 4)] * 3
        bwd = [SentenceAlignment(frozenset(), 4, 3), SentenceAlignment(frozenset(), 3, 4),
               SentenceAlignment(frozenset(), 2, 2)]
        for wrap in (list, Alignments.of):
            with pytest.raises(ValidationError) as exc:
                symmetrize(wrap(fwd), wrap(bwd[:2]))
            assert str(exc.value) == "alignment count mismatch: 3 forward vs 2 backward"
            with pytest.raises(ValidationError) as exc:
                symmetrize(wrap(fwd), wrap(bwd))
            assert str(exc.value) == "sentence 1: forward is 3x4 but backward is 3x4"

    def test_induce_messages_name_the_first_bad_link(self):
        corpus = [(["a", "b"], ["x"]), (["a"], ["x"])]
        alignments = [SentenceAlignment(frozenset({(1, 0)}), 2, 1),
                      SentenceAlignment(frozenset({(2, 0), (1, 0), (0, 0)}), 3, 1)]
        for wrap in (list, Alignments.of):
            with pytest.raises(ValidationError) as exc:
                induce_lexicon(corpus, wrap(alignments))
            assert str(exc.value) == "sentence 1: link (1,0) out of range for 1x1 pair"
            with pytest.raises(ValidationError) as exc:
                induce_lexicon(corpus, wrap(alignments[:1]))
            assert str(exc.value) == "1 alignments for 2 sentence pairs"
