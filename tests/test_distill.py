import pytest

from conftest import DISTILLED_TAGS, LABELED_TAGS, LABELED_WANT, pos_corpus
from lexsynth.corpus_io import LabeledCorpus, LabeledSentence, Schema
from lexsynth.distill import apply_teacher_labels, distill_report
from lexsynth.errors import ValidationError


@pytest.fixture
def pseudo():
    return pos_corpus((LABELED_WANT, LABELED_TAGS))


@pytest.fixture
def teacher():
    return pos_corpus((LABELED_WANT, DISTILLED_TAGS))


class TestApply:
    def test_worked_example(self, pseudo, teacher):
        out, changed = apply_teacher_labels(pseudo, teacher)
        assert out.sentences[0].tokens == LABELED_WANT.split()
        assert out.sentences[0].labels == DISTILLED_TAGS.split()
        assert changed == 2  # the "xewqa hares" positions: AUX VERB -> NOUN NOUN

    def test_identical_teacher_changes_nothing(self, pseudo):
        out, changed = apply_teacher_labels(pseudo, pos_corpus((LABELED_WANT, LABELED_TAGS)))
        assert changed == 0
        assert out.sentences[0].labels == pseudo.sentences[0].labels

    def test_altered_token_rejected_with_position(self, pseudo):
        tampered = LABELED_WANT.replace("gwerra", "GWERRA")
        with pytest.raises(ValidationError, match=r"sentence 0, position 11"):
            apply_teacher_labels(pseudo, pos_corpus((tampered, LABELED_TAGS)))

    @pytest.mark.parametrize("teacher_text, message", [
        ("a b", "sentence 0: pseudo has 3 tokens, teacher has 2"),
        ("a b c d", "sentence 0: pseudo has 3 tokens, teacher has 4"),
    ])
    def test_token_count_mismatch_rejected(self, teacher_text, message):
        # the shared tokens match, so no position is named
        tags = " ".join("X" for _ in teacher_text.split())
        with pytest.raises(ValidationError, match=f"^{message}$"):
            apply_teacher_labels(pos_corpus(("a b c", "X X X")), pos_corpus((teacher_text, tags)))

    def test_sentence_count_mismatch_rejected(self, pseudo):
        empty = LabeledCorpus(Schema.POS, [])
        with pytest.raises(ValidationError, match="count"):
            apply_teacher_labels(pseudo, empty)

    def test_schema_mismatch_rejected(self, pseudo):
        ner = LabeledCorpus(Schema.NER, [
            LabeledSentence(LABELED_WANT.split(), Schema.NER,
                            labels=["O"] * len(LABELED_WANT.split()))
        ])
        with pytest.raises(ValidationError, match="schema"):
            apply_teacher_labels(pseudo, ner)

    def test_idempotent_with_own_output(self, pseudo, teacher):
        once, _ = apply_teacher_labels(pseudo, teacher)
        twice, changed = apply_teacher_labels(once, once)
        assert changed == 0
        assert twice.sentences[0].labels == once.sentences[0].labels

    def test_passthrough_kept_from_pseudo(self, tmp_path, teacher):
        from lexsynth.corpus_io import Format, read_labeled, write_labeled
        path = tmp_path / "p.tsv"
        path.write_text(
            "".join(f"{t}\t{l}\n" for t, l in zip(LABELED_WANT.split(), LABELED_TAGS.split())),
            encoding="utf-8")
        pseudo = read_labeled(path, Schema.POS)
        out, _ = apply_teacher_labels(pseudo, teacher)
        written = tmp_path / "out.tsv"
        write_labeled(out, written, Format.TWO_COL)
        lines = written.read_text(encoding="utf-8").splitlines()
        assert lines[6] == "xewqa\tNOUN"
        assert lines[7] == "hares\tNOUN"

    def test_dep_replaces_heads_and_deprels(self):
        base = LabeledSentence(["a", "b"], Schema.DEP, heads=[2, 0], deprels=["nsubj", "root"])
        pred = LabeledSentence(["a", "b"], Schema.DEP, heads=[0, 1], deprels=["root", "obj"])
        out, changed = apply_teacher_labels(
            LabeledCorpus(Schema.DEP, [base]), LabeledCorpus(Schema.DEP, [pred]))
        assert out.sentences[0].heads == [0, 1]
        assert out.sentences[0].deprels == ["root", "obj"]
        assert changed == 2


class TestReport:
    def test_identical_corpora(self, pseudo):
        report = distill_report(pseudo, pseudo)
        assert report.changed == 0
        assert report.change_rate == 0.0
        assert report.per_label_confusion == {}

    def test_worked_example_confusion(self, pseudo, teacher):
        distilled, _ = apply_teacher_labels(pseudo, teacher)
        report = distill_report(pseudo, distilled)
        assert report.positions == 17
        assert report.changed == 2
        assert report.per_label_confusion == {"AUX->NOUN": 1, "VERB->NOUN": 1}

    def test_fully_relabeled(self):
        before = pos_corpus(("a b", "NOUN NOUN"))
        after = pos_corpus(("a b", "VERB VERB"))
        report = distill_report(before, after)
        assert report.change_rate == 1.0

    def test_shape_mismatch_rejected(self, pseudo):
        with pytest.raises(ValidationError):
            distill_report(pseudo, pos_corpus(("one two", "NOUN NOUN")))
