"""Rewrite pseudo-corpus labels with a teacher model's predictions.

The teacher's output arrives as a labeled corpus in the same format as the
pseudo data; tokens must match position for position, exactly as emitted by
synthesis, so labels can be swapped in with positional integrity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .corpus_io import LabeledCorpus, LabeledSentence, Schema
from .errors import ValidationError


def _position_labels(sent: LabeledSentence) -> list[str]:
    """Each position's label, compared whole: ``head:deprel`` for DEP."""
    if sent.schema is Schema.DEP:
        return [f"{head}:{deprel}" for head, deprel in zip(sent.heads, sent.deprels)]
    return sent.labels


def _check_shape(pseudo: LabeledCorpus, other: LabeledCorpus, what: str) -> None:
    if pseudo.schema is not other.schema:
        raise ValidationError(
            f"schema mismatch: pseudo is {pseudo.schema.value}, {what} is {other.schema.value}"
        )
    if len(pseudo.sentences) != len(other.sentences):
        raise ValidationError(
            f"sentence count mismatch: pseudo has {len(pseudo.sentences)}, "
            f"{what} has {len(other.sentences)}"
        )


def apply_teacher_labels(
    pseudo: LabeledCorpus, teacher: LabeledCorpus
) -> tuple[LabeledCorpus, int]:
    """Keep pseudo tokens and passthrough, take teacher labels.

    Returns the corrected corpus and the number of positions whose label
    changed. Token sequences must match exactly (case-sensitive); the first
    offending sentence/position is named otherwise.
    """
    _check_shape(pseudo, teacher, "teacher")
    changed = 0
    sentences: list[LabeledSentence] = []
    for n, (p, t) in enumerate(zip(pseudo.sentences, teacher.sentences)):
        if p.tokens != t.tokens:
            for i, (pt, tt) in enumerate(zip(p.tokens, t.tokens)):
                if pt != tt:
                    raise ValidationError(
                        f"sentence {n}, position {i}: pseudo token {pt!r} != teacher token {tt!r}"
                    )
            raise ValidationError(
                f"sentence {n}: pseudo has {len(p.tokens)} tokens, teacher has {len(t.tokens)}"
            )
        changed += sum(a != b for a, b in zip(_position_labels(p), _position_labels(t)))
        sentences.append(replace(p, labels=t.labels, heads=t.heads, deprels=t.deprels))
    return LabeledCorpus(pseudo.schema, sentences), changed


@dataclass(frozen=True)
class DistillReport:
    positions: int
    changed: int
    change_rate: float
    per_label_confusion: dict[str, int]  # "original->teacher" → count

    def to_dict(self) -> dict:
        return {
            "positions": self.positions,
            "changed": self.changed,
            "change_rate": self.change_rate,
            "per_label_confusion": dict(sorted(self.per_label_confusion.items())),
        }


def distill_report(pseudo: LabeledCorpus, distilled: LabeledCorpus) -> DistillReport:
    """Count label changes between a pseudo corpus and its distilled version."""
    _check_shape(pseudo, distilled, "distilled")
    positions = 0
    changed = 0
    confusion: dict[str, int] = {}
    for n, (p, d) in enumerate(zip(pseudo.sentences, distilled.sentences)):
        if p.tokens != d.tokens:
            raise ValidationError(f"sentence {n}: token sequences differ")
        positions += len(p.tokens)
        for before, after in zip(_position_labels(p), _position_labels(d)):
            if before != after:
                changed += 1
                key = f"{before}->{after}"
                confusion[key] = confusion.get(key, 0) + 1
    return DistillReport(
        positions=positions,
        changed=changed,
        change_rate=changed / positions if positions else 0.0,
        per_label_confusion=confusion,
    )
