import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import BOM, TOKENS, build_lexicon
from lexsynth.errors import DataFormatError, ValidationError
from lexsynth.lexicon import (
    UND,
    Lexicon,
    LoadMode,
    Provenance,
    lexicon_stats,
    load_lexicon,
    merge,
    save_lexicon,
)


def write(tmp_path, text, name="lex.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_single_token_pairs(self, tmp_path):
        path = write(tmp_path, "will\txewqa\nlook\thares\n")
        lex, dropped = load_lexicon(path, LoadMode.SINGLE_TOKEN_ONLY)
        assert lex.entry_count() == 2
        assert dropped == 0
        assert [e.target for e in lex.lookup("will")] == ["xewqa"]

    def test_multi_token_target_dropped_in_single_mode(self, tmp_path):
        path = write(tmp_path, "unnecessary\tbla bzonn\n")
        lex, dropped = load_lexicon(path, LoadMode.SINGLE_TOKEN_ONLY)
        assert lex.entry_count() == 0
        assert dropped == 1

    def test_multi_token_target_kept_by_default(self, tmp_path):
        path = write(tmp_path, "unnecessary\tbla bzonn\n")
        lex, dropped = load_lexicon(path)
        assert [e.target for e in lex.lookup("unnecessary")] == ["bla bzonn"]
        assert dropped == 0

    def test_empty_file(self, tmp_path):
        lex, dropped = load_lexicon(write(tmp_path, ""))
        assert lex.entry_count() == 0
        assert dropped == 0

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "# a comment\n\nwill\txewqa\n\n# another\n")
        lex, dropped = load_lexicon(path)
        assert lex.entry_count() == 1

    def test_wrong_field_count_names_line(self, tmp_path):
        path = write(tmp_path, "will\txewqa\nbroken line\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_lexicon(path)

    def test_three_fields_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="3 field"):
            load_lexicon(write(tmp_path, "a\tb\tc\n"))

    def test_empty_field_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="line 1"):
            load_lexicon(write(tmp_path, "will\t \n"))

    def test_multi_token_source_dropped_in_both_modes(self, tmp_path):
        path = write(tmp_path, "new york\tnew york\nwill\txewqa\n")
        for mode in LoadMode:
            lex, dropped = load_lexicon(path, mode)
            assert lex.entry_count() == 1
            assert dropped == 1

    def test_duplicates_collapse_keeping_first_seen_order(self, tmp_path):
        path = write(tmp_path, "the\til\nThe\tli\nTHE\til\n")
        lex, _ = load_lexicon(path)
        assert [e.target for e in lex.lookup("the")] == ["il", "li"]

    def test_sources_casefolded_for_lookup(self, tmp_path):
        lex, _ = load_lexicon(write(tmp_path, "I\tjien\n"))
        assert [e.target for e in lex.lookup("I")] == ["jien"]
        assert [e.target for e in lex.lookup("i")] == ["jien"]
        assert lex.lookup("İ") == []  # dotted capital I casefolds differently

    def test_target_whitespace_normalized(self, tmp_path):
        lex, _ = load_lexicon(write(tmp_path, "a\tx   y\n"))
        assert lex.lookup("a")[0].target == "x y"

    def test_leading_bom_stripped(self, tmp_path):
        lex, _ = load_lexicon(write(tmp_path, "\ufeffa\tx\nb\ty\n"))
        assert [e.target for e in lex.lookup("a")] == ["x"]
        assert lex.lookup("\ufeffa") == []


class TestRoundTrip:
    def test_save_load_idempotent(self, tmp_path):
        path = write(tmp_path, "will\txewqa\nlook\thares\nunnecessary\tbla bzonn\n")
        lex, _ = load_lexicon(path)
        out1 = tmp_path / "out1.tsv"
        out2 = tmp_path / "out2.tsv"
        save_lexicon(lex, out1)
        relex, dropped = load_lexicon(out1)
        assert dropped == 0
        assert [(e.source, e.target) for e in relex.iter_entries()] == \
               [(e.source, e.target) for e in lex.iter_entries()]
        save_lexicon(relex, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_hash_source_is_an_entry_not_a_comment(self, tmp_path):
        lex = build_lexicon([("#1", "x"), ("a", "y")])
        path = tmp_path / "hash.tsv"
        save_lexicon(lex, path)
        assert path.read_text(encoding="utf-8") == "#1\tx\na\ty\n"
        relex, dropped = load_lexicon(path)
        assert dropped == 0
        assert [(e.source, e.target) for e in relex.iter_entries()] == [("#1", "x"), ("a", "y")]

    def test_tabless_hash_line_is_still_a_comment(self, tmp_path):
        path = write(tmp_path, "# src_lang: en\n#1 x\n#\na\ty\n")
        lex, dropped = load_lexicon(path)
        assert (lex.src_lang, dropped) == ("en", 0)
        assert [(e.source, e.target) for e in lex.iter_entries()] == [("a", "y")]

    def test_langs_and_provenance_survive(self, tmp_path):
        lex = build_lexicon([("a", "x")], provenance=Provenance.INDUCED,
                            src_lang="en", tgt_lang="mlt")
        path = tmp_path / "ind.tsv"
        save_lexicon(lex, path)
        relex, _ = load_lexicon(path)
        assert (relex.src_lang, relex.tgt_lang) == ("en", "mlt")
        assert relex.lookup("a")[0].provenance is Provenance.INDUCED


class TestAdd:
    def test_duplicate_returns_false_and_keeps_first_seen_order(self):
        lex = Lexicon()
        assert lex.add("A", "x") and lex.add("a", "y")
        assert not lex.add("a", " x ")
        assert not lex.add("A", "y")
        assert [e.target for e in lex.lookup("a")] == ["x", "y"]

    def test_base_replaces_induced_in_place(self):
        lex = Lexicon()
        for target in ("x", "y", "z"):
            lex.add("a", target, Provenance.INDUCED)
        assert not lex.add("a", "y", Provenance.BASE)
        assert [(e.target, e.provenance) for e in lex.lookup("a")] == [
            ("x", Provenance.INDUCED), ("y", Provenance.BASE), ("z", Provenance.INDUCED)]
        # an induced duplicate never downgrades a base entry
        assert not lex.add("a", "y", Provenance.INDUCED)
        assert lex.lookup("a")[1].provenance is Provenance.BASE

    @pytest.mark.parametrize("source", [" a", "a ", "a\n", "a b", ""])
    def test_source_must_be_one_token(self, source):
        # " a" used to be saved as " a<TAB>x", which loads back as the key "a"
        with pytest.raises(ValidationError, match="single non-empty token"):
            Lexicon().add(source, "x")

    def test_many_candidates_for_one_source_is_linear(self):
        # PanLex-style sources carry hundreds of candidates; each insert must
        # not rescan the source's candidate list.
        targets = [f"t{i}" for i in range(20_000)]
        lex = Lexicon()
        started = time.perf_counter()
        for target in targets:
            assert lex.add("src", target)
        assert not lex.add("src", targets[-1])
        elapsed = time.perf_counter() - started
        assert [e.target for e in lex.lookup("src")] == targets
        assert elapsed < 2.0


class TestMerge:
    def test_identity_with_empty(self):
        lex = build_lexicon([("a", "x"), ("b", "y")])
        merged = merge(lex, Lexicon())
        assert [(e.source, e.target) for e in merged.iter_entries()] == \
               [(e.source, e.target) for e in lex.iter_entries()]

    def test_union_base_candidates_first(self):
        merged = merge(build_lexicon([("a", "x")]), build_lexicon([("a", "y"), ("b", "z")]))
        assert [e.target for e in merged.lookup("a")] == ["x", "y"]
        assert [e.target for e in merged.lookup("b")] == ["z"]
        assert merged.entry_count() == 3

    def test_duplicate_keeps_base_provenance(self):
        base = build_lexicon([("a", "x")])
        extra = build_lexicon([("a", "x")], provenance=Provenance.INDUCED)
        merged = merge(base, extra)
        assert merged.entry_count() == 1
        assert merged.lookup("a")[0].provenance is Provenance.BASE
        # and the other way around: a Base duplicate upgrades an Induced one
        assert merge(extra, base).lookup("a")[0].provenance is Provenance.BASE

    def test_language_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            merge(Lexicon(src_lang="en", tgt_lang="mlt"), Lexicon(src_lang="en", tgt_lang="wol"))

    def test_pair_set_is_exact_union_and_associative(self):
        rng = random.Random(5)
        for _ in range(25):
            lexes = []
            for _ in range(3):
                pairs = [(f"s{rng.randint(0, 5)}", f"t{rng.randint(0, 5)}")
                         for _ in range(rng.randint(0, 8))]
                lexes.append(build_lexicon(pairs))
            a, b, c = lexes
            left = merge(merge(a, b), c)
            right = merge(a, merge(b, c))
            pairset = lambda lx: {(e.source, e.target) for e in lx.iter_entries()}
            want = pairset(a) | pairset(b) | pairset(c)
            assert pairset(left) == want
            assert pairset(right) == want


class TestStats:
    def test_empty(self):
        stats = lexicon_stats(Lexicon())
        assert stats.to_dict() == {
            "entry_pairs": 0, "distinct_sources": 0,
            "multi_candidate_sources": 0, "multi_token_targets": 0,
        }

    def test_counts(self):
        lex = build_lexicon([("a", "x"), ("a", "y"), ("b", "m n")])
        stats = lexicon_stats(lex)
        assert stats.entry_pairs == 3
        assert stats.distinct_sources == 2
        assert stats.multi_candidate_sources == 1
        assert stats.multi_token_targets == 1


@given(st.lists(st.tuples(st.sampled_from("abcdef"), st.text("xyz ", min_size=1, max_size=5)),
                max_size=30))
@settings(max_examples=60, deadline=None)
def test_pair_count_matches_candidate_lists(pairs):
    lex = Lexicon()
    for source, target in pairs:
        if target.strip():
            lex.add(source, target)
    assert lex.entry_count() == sum(len(c) for c in lex.entries.values())


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from(["x", "y z", "w", "u v t"])),
                max_size=25))
@settings(max_examples=60, deadline=None)
def test_single_token_mode_is_filtered_subset(tmp_path_factory, pairs):
    tmp = tmp_path_factory.mktemp("lex")
    path = tmp / "lex.tsv"
    path.write_text("".join(f"{s}\t{t}\n" for s, t in pairs), encoding="utf-8")
    full, _ = load_lexicon(path, LoadMode.ALLOW_MULTI_TOKEN)
    single, _ = load_lexicon(path, LoadMode.SINGLE_TOKEN_ONLY)
    want = {(e.source, e.target) for e in full.iter_entries() if not e.is_multi_token}
    got = {(e.source, e.target) for e in single.iter_entries()}
    assert got == want


@st.composite
def lexicons(draw):
    """Lexicons the TSV format can carry: provenance is one comment for the
    whole file, so all entries share it."""
    provenance = draw(st.sampled_from(Provenance))
    lex = Lexicon(*draw(st.lists(st.just(UND) | TOKENS, min_size=2, max_size=2)))
    pairs = st.tuples(TOKENS, st.lists(TOKENS, min_size=1, max_size=3))
    for source, target in draw(st.lists(pairs, max_size=6)):
        lex.add(source, " ".join(target), provenance)
    return lex


@given(lexicons())
@settings(max_examples=100, deadline=None)
def test_save_load_round_trip(tmp_path_factory, lex):
    path = tmp_path_factory.mktemp("lex") / "lex.tsv"
    save_lexicon(lex, path)
    assume(not path.read_text(encoding="utf-8").startswith(BOM))
    again, dropped = load_lexicon(path)
    assert dropped == 0
    assert (again.src_lang, again.tgt_lang) == (lex.src_lang, lex.tgt_lang)
    assert list(again.iter_entries()) == list(lex.iter_entries())
