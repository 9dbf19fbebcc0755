import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mono_oracle
from conftest import mono_texts, pos_corpus
from lexsynth.corpus_io import LabeledCorpus, MonoCorpus, Schema, read_mono, write_mono
from lexsynth.errors import ValidationError
from lexsynth.mix import build_joint_labeled, concat_shuffle, upsample_to_match


class TestUpsample:
    def test_two_copies_plus_one_sample(self):
        gold = [["a"], ["b"], ["c"]]
        out = upsample_to_match(gold, 7, seed=3)
        assert len(out) == 7
        assert out[:6] == gold * 2
        assert out[6] in gold

    def test_exact_size_is_identity(self):
        gold = [["a"], ["b"], ["c"]]
        assert upsample_to_match(gold, 3, seed=1) == gold

    def test_multiplicities_differ_by_at_most_one(self):
        gold = [[f"s{i}"] for i in range(6000)]
        out = upsample_to_match(gold, 200000, seed=9)
        assert len(out) == 200000
        counts = Counter(s[0] for s in out)
        assert set(counts.values()) == {33, 34}
        assert sum(1 for v in counts.values() if v == 34) == 2000

    def test_remainder_keeps_original_relative_order(self):
        gold = [[f"s{i}"] for i in range(10)]
        out = upsample_to_match(gold, 14, seed=5)
        tail = [int(s[0][1:]) for s in out[10:]]
        assert tail == sorted(tail)

    def test_seeded_and_deterministic(self):
        gold = [[f"s{i}"] for i in range(50)]
        assert upsample_to_match(gold, 120, seed=4) == upsample_to_match(gold, 120, seed=4)
        a = upsample_to_match(gold, 70, seed=1)
        b = upsample_to_match(gold, 70, seed=2)
        assert a != b  # different remainder samples

    def test_empty_gold_rejected(self):
        with pytest.raises(ValidationError):
            upsample_to_match([], 5, seed=1)

    def test_bad_target_rejected(self):
        with pytest.raises(ValidationError):
            upsample_to_match([["a"]], 0, seed=1)

    @pytest.mark.parametrize("token", ["a b", "", " ", "a\u00a0b", "a\n"])
    def test_token_that_a_line_would_split_rejected(self, token):
        with pytest.raises(ValidationError, match=re.escape(f"sentence 1, token 1: {token!r}")):
            upsample_to_match([["x"], ["y", token]], 3, seed=1)


class TestConcatShuffle:
    def test_multiset_preserved(self):
        a = [["x"], ["y"]]
        b = [["z"], ["x"], ["w"]]
        out = concat_shuffle([a, b], seed=7)
        assert len(out) == 5
        assert sorted(out) == sorted(a + b)

    def test_no_shuffle_keeps_order(self):
        a = [["x"], ["y"]]
        b = [["z"]]
        assert concat_shuffle([a, b], seed=7, shuffle=False) == a + b

    def test_same_seed_same_permutation(self):
        corpora = [[[f"s{i}"] for i in range(100)]]
        assert concat_shuffle(corpora, seed=3) == concat_shuffle(corpora, seed=3)

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_token_with_whitespace_is_not_resplit(self, shuffle):
        # as a line, "a b" would come back as two tokens
        with pytest.raises(ValidationError, match="sentence 0, token 0: 'a b'"):
            concat_shuffle([[["a b"]]], 1, shuffle=shuffle)
        with pytest.raises(ValidationError, match="sentence 2, token 1: ''"):
            concat_shuffle([MonoCorpus(["x"]), [["y"], ["z"], ["w", "", "v"]]], 1, shuffle)

    def test_mixes_line_backed_and_listed_corpora(self):
        out = concat_shuffle([MonoCorpus(["a b"]), [["c"], ["d", "e"]]], seed=7, shuffle=False)
        assert isinstance(out, MonoCorpus)
        assert out.lines == ["a b", "c", "d e"]


@given(st.lists(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=3),
                         max_size=6), max_size=4),
       st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_concat_shuffle_multiset_property(corpora, seed):
    out = concat_shuffle(corpora, seed)
    flat = [s for c in corpora for s in c]
    assert sorted(out) == sorted(flat)


@given(st.integers(1, 40), st.integers(1, 200), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_upsample_size_and_balance_property(gold_size, target, seed):
    gold = [[f"s{i}"] for i in range(gold_size)]
    out = upsample_to_match(gold, target, seed)
    assert len(out) == target
    counts = Counter(s[0] for s in out)
    values = [counts.get(f"s{i}", 0) for i in range(gold_size)]
    assert max(values) - min(values) <= 1


@given(mono_texts(), mono_texts(), st.none() | st.integers(0, 6), st.integers(1, 30),
       st.integers(-2**40, 2**40), st.booleans())
@settings(max_examples=300, deadline=None)
def test_mix_writes_the_list_references_bytes(tmp_path_factory, first, second, limit,
                                              target, seed, shuffle):
    tmp = tmp_path_factory.mktemp("mix")
    a, b, got, want = (tmp / name for name in ("a.txt", "b.txt", "got.txt", "want.txt"))
    a.write_bytes(first.encode("utf-8"))
    b.write_bytes(second.encode("utf-8"))

    def check(ours, reference):
        write_mono(ours, got)
        mono_oracle.write_mono(reference, want)
        assert got.read_bytes() == want.read_bytes()

    corpus, reference = read_mono(a, limit), mono_oracle.read_mono(a, limit)
    check(corpus, reference)
    check(concat_shuffle([corpus, read_mono(b)], seed, shuffle),
          mono_oracle.concat_shuffle([reference, mono_oracle.read_mono(b)], seed, shuffle))
    if reference:
        check(upsample_to_match(corpus, target, seed),
              mono_oracle.upsample_to_match(reference, target, seed))
    else:
        with pytest.raises(ValidationError, match="empty corpus"):
            upsample_to_match(corpus, target, seed)


class TestJointLabeled:
    def test_doubles_matching_corpora(self):
        gold = pos_corpus(("a b", "NOUN VERB"), ("c", "NOUN"))
        pseudo = pos_corpus(("x y", "NOUN VERB"), ("z", "NOUN"))
        joint = build_joint_labeled(gold, pseudo)
        assert len(joint.sentences) == 4
        assert joint.sentences[0].tokens == ["a", "b"]
        assert joint.sentences[2].tokens == ["x", "y"]

    def test_empty_pseudo_is_identity(self):
        gold = pos_corpus(("a", "NOUN"))
        joint = build_joint_labeled(gold, LabeledCorpus(Schema.POS, []))
        assert joint.sentences == gold.sentences

    def test_schema_mismatch_rejected(self):
        gold = pos_corpus(("a", "NOUN"))
        ner = LabeledCorpus(Schema.NER, [])
        with pytest.raises(ValidationError):
            build_joint_labeled(gold, ner)
