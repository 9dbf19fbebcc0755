"""Rewrite pseudo-corpus labels with a teacher model's predictions.

The teacher's output arrives as a labeled corpus in the same format as the
pseudo data; tokens must match position for position, exactly as emitted by
synthesis, so labels can be swapped in with positional integrity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from operator import ne

from .corpus_io import LabeledCorpus, Schema
from .errors import ValidationError


def _position_labels(corpus: LabeledCorpus) -> list[str]:
    """Each position's label, compared whole: ``head:deprel`` for DEP."""
    if corpus.schema is Schema.DEP:
        return [f"{head}:{deprel}" for head, deprel in zip(corpus.heads, corpus.deprels)]
    return corpus.labels


def _check_shape(pseudo: LabeledCorpus, other: LabeledCorpus, what: str):
    """The first sentence whose tokens differ: (index, pseudo's, ``what``'s), or None."""
    if pseudo.schema is not other.schema:
        raise ValidationError(
            f"schema mismatch: pseudo is {pseudo.schema.value}, {what} is {other.schema.value}"
        )
    if len(pseudo) != len(other):
        raise ValidationError(
            f"sentence count mismatch: pseudo has {len(pseudo)}, {what} has {len(other)}"
        )
    if pseudo.offsets == other.offsets and pseudo.tokens == other.tokens:
        return None
    return next((n, p.tokens, o.tokens) for n, (p, o) in enumerate(zip(pseudo.sentences, other.sentences))
                if p.tokens != o.tokens)


def apply_teacher_labels(
    pseudo: LabeledCorpus, teacher: LabeledCorpus
) -> tuple[LabeledCorpus, int]:
    """Keep pseudo tokens and passthrough, take teacher labels.

    Returns the corrected corpus and the number of positions whose label
    changed. Token sequences must match exactly (case-sensitive); the first
    offending sentence/position is named otherwise.
    """
    mismatch = _check_shape(pseudo, teacher, "teacher")
    if mismatch:
        n, p, t = mismatch
        for i, (pt, tt) in enumerate(zip(p, t)):
            if pt != tt:
                raise ValidationError(
                    f"sentence {n}, position {i}: pseudo token {pt!r} != teacher token {tt!r}"
                )
        raise ValidationError(f"sentence {n}: pseudo has {len(p)} tokens, teacher has {len(t)}")
    changed = sum(map(ne, _position_labels(pseudo), _position_labels(teacher)))
    return pseudo._replace(labels=teacher.labels, heads=teacher.heads, deprels=teacher.deprels), changed


@dataclass(frozen=True)
class DistillReport:
    positions: int
    changed: int
    change_rate: float
    per_label_confusion: dict[str, int]  # "original->teacher" → count

    def to_dict(self) -> dict:
        return {**asdict(self),
                "per_label_confusion": dict(sorted(self.per_label_confusion.items()))}


def distill_report(pseudo: LabeledCorpus, distilled: LabeledCorpus) -> DistillReport:
    """Count label changes between a pseudo corpus and its distilled version."""
    mismatch = _check_shape(pseudo, distilled, "distilled")
    if mismatch:
        raise ValidationError(f"sentence {mismatch[0]}: token sequences differ")
    positions = len(pseudo.tokens)
    confusion = Counter(f"{before}->{after}" for before, after
                        in zip(_position_labels(pseudo), _position_labels(distilled)) if before != after)
    changed = sum(confusion.values())
    return DistillReport(
        positions=positions,
        changed=changed,
        change_rate=changed / positions if positions else 0.0,
        per_label_confusion=dict(confusion),
    )
