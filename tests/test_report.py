import json

import pytest

from conftest import build_lexicon, pos_corpus
from lexsynth.distill import DistillReport
from lexsynth.errors import ValidationError
from lexsynth.lexicon import Lexicon, LexiconStats, lexicon_stats
from lexsynth.report import (
    PosDistribution,
    lexicon_pos_distribution,
    pipeline_summary,
    summary_json,
)
from lexsynth.synth import CoverageReport, SynthesisConfig, coverage


@pytest.fixture
def reference():
    # house: NOUN x3; run: VERB x2, NOUN x1
    return pos_corpus(
        ("house house house", "NOUN NOUN NOUN"),
        ("run run", "VERB VERB"),
        ("run", "NOUN"),
    )


class TestPosDistribution:
    def test_majority_tag_histogram(self, reference):
        lex = build_lexicon([("house", "dar"), ("run", "ġiri")])
        dist = lexicon_pos_distribution(lex, reference)
        assert dist.fractions == {"NOUN": 0.5, "VERB": 0.5}
        assert dist.found == 2
        assert dist.out_of_reference == 0

    def test_empty_lexicon(self, reference):
        dist = lexicon_pos_distribution(Lexicon(), reference)
        assert dist.fractions == {}
        assert dist.found == 0

    def test_out_of_reference_counted_not_fractioned(self, reference):
        lex = build_lexicon([("house", "dar"), ("zebra", "żebra")])
        dist = lexicon_pos_distribution(lex, reference)
        assert dist.fractions == {"NOUN": 1.0}
        assert dist.out_of_reference == 1

    def test_tie_breaks_to_lexicographically_smallest(self):
        ref = pos_corpus(("fly fly", "NOUN VERB"))
        dist = lexicon_pos_distribution(build_lexicon([("fly", "dubbiena")]), ref)
        assert dist.fractions == {"NOUN": 1.0}

    def test_case_variants_pool_their_counts_and_tie_to_the_smallest_tag(self):
        # "Fly"/"fly": VERB 1 + NOUN 1 ties to NOUN; "Run"/"RUN"/"run": VERB 2
        # beats NOUN 1, though no single spelling holds two VERBs
        ref = pos_corpus(("Fly fly", "VERB NOUN"), ("Run RUN run", "VERB VERB NOUN"))
        lex = build_lexicon([("fly", "dubbiena"), ("run", "ġiri")])
        assert lexicon_pos_distribution(lex, ref).fractions == {"NOUN": 0.5, "VERB": 0.5}
        lex = build_lexicon([("fly", "dubbiena")])
        assert lexicon_pos_distribution(lex, ref).fractions == {"NOUN": 1.0}

    def test_reference_matching_is_casefolded(self, reference):
        dist = lexicon_pos_distribution(build_lexicon([("HOUSE", "dar")]), reference)
        assert dist.found == 1

    def test_fractions_sum_to_one(self, reference):
        lex = build_lexicon([("house", "a"), ("run", "b"), ("nowhere", "c")])
        dist = lexicon_pos_distribution(lex, reference)
        assert sum(dist.fractions.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_reference_rejected(self):
        from lexsynth.corpus_io import LabeledCorpus, Schema
        with pytest.raises(ValidationError):
            lexicon_pos_distribution(Lexicon(), LabeledCorpus(Schema.POS, []))

    @pytest.mark.parametrize("schema", ["ner", "dep"])
    def test_non_pos_reference_rejected(self, schema):
        from lexsynth.corpus_io import LabeledCorpus, LabeledSentence, Schema
        labels = ({"heads": [0], "deprels": ["root"]} if schema == "dep"
                  else {"labels": ["O"]})
        ref = LabeledCorpus(Schema(schema), [LabeledSentence(["run"], Schema(schema), **labels)])
        with pytest.raises(ValidationError, match="reference corpus must use the pos schema"):
            lexicon_pos_distribution(build_lexicon([("run", "ġiri")]), ref)


class TestReportDicts:
    """Each report's ``to_dict`` lists its fields in declaration order, with
    a dict field's keys sorted even in a report built by hand."""

    def test_field_order_and_sorted_dicts(self):
        cases = [
            (CoverageReport(10, 4, 0.4, 6, 2, 3), {
                "total_tokens": 10, "replaced_tokens": 4, "replacement_rate": 0.4,
                "distinct_types": 6, "covered_types": 2, "sentences": 3}),
            (LexiconStats(5, 3, 1, 2), {
                "entry_pairs": 5, "distinct_sources": 3, "multi_candidate_sources": 1,
                "multi_token_targets": 2}),
            (DistillReport(4, 2, 0.5, {"VERB->NOUN": 1, "AUX->NOUN": 1}), {
                "positions": 4, "changed": 2, "change_rate": 0.5,
                "per_label_confusion": {"AUX->NOUN": 1, "VERB->NOUN": 1}}),
            (PosDistribution({"VERB": 0.25, "NOUN": 0.75}, 4, 1), {
                "fractions": {"NOUN": 0.75, "VERB": 0.25}, "found": 4,
                "out_of_reference": 1}),
        ]
        for report, want in cases:
            got = report.to_dict()
            assert json.dumps(got) == json.dumps(want)  # same keys in the same order

    def test_summary_json_renders_utf8_with_two_space_indent_and_one_lf(self):
        doc = DistillReport(1, 1, 1.0, {"ġ->x": 1}).to_dict()
        assert summary_json(doc) == (
            '{\n  "positions": 1,\n  "changed": 1,\n  "change_rate": 1.0,\n'
            '  "per_label_confusion": {\n    "ġ->x": 1\n  }\n}\n')


class TestPipelineSummary:
    def test_metadata_only(self):
        doc = pipeline_summary([])
        assert doc["tool"] == "lexsynth"
        assert doc["stages"] == []
        assert "version" in doc

    def test_reports_embedded_in_order(self, mono_lexicon):
        cov = coverage([["the", "state"]], mono_lexicon)
        stats = lexicon_stats(mono_lexicon)
        doc = pipeline_summary(
            [("synth-mono", cov), ("lex-stats", stats)], seeds=[13])
        assert [s["stage"] for s in doc["stages"]] == ["synth-mono", "lex-stats"]
        assert doc["stages"][0]["report"] == cov.to_dict()
        assert doc["stages"][1]["report"] == stats.to_dict()
        assert doc["seeds"] == [13]

    def test_byte_stable(self, mono_lexicon):
        cov = coverage([["the"]], mono_lexicon)
        a = summary_json(pipeline_summary([("s", cov)], seeds=[1]))
        b = summary_json(pipeline_summary([("s", cov)], seeds=[1]))
        assert a == b
        json.loads(a)  # valid JSON

    def test_seed_config_accepted_as_mapping(self):
        cfg = SynthesisConfig(seed=5)
        doc = pipeline_summary([("cfg", {"seed": cfg.seed})], seeds=[cfg.seed])
        assert doc["stages"][0]["report"] == {"seed": 5}
