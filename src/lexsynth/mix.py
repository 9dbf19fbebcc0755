"""Assemble training corpora: upsampling, concatenation, joint labeled sets."""

from __future__ import annotations

import random

from .corpus_io import LabeledCorpus, MonoCorpus, TokenizedCorpus
from .errors import ValidationError


def upsample_to_match(
    gold: MonoCorpus | TokenizedCorpus, target_size: int, seed: int
) -> MonoCorpus:
    """Repeat a small corpus to exactly target_size sentences.

    floor(target_size / |gold|) full copies in original order, then a seeded
    uniform sample without replacement of the remainder, kept in original
    relative order; per-sentence multiplicities differ by at most one.
    """
    lines = MonoCorpus.of(gold).lines
    if not lines:
        raise ValidationError("cannot upsample an empty corpus")
    if target_size < 1:
        raise ValidationError("target size must be >= 1")
    copies, remainder = divmod(target_size, len(lines))
    out = lines * copies
    if remainder:
        picks = sorted(random.Random(seed).sample(range(len(lines)), remainder))
        out.extend(map(lines.__getitem__, picks))
    return MonoCorpus(out)


def concat_shuffle(
    corpora: list[MonoCorpus | TokenizedCorpus], seed: int, shuffle: bool = True
) -> MonoCorpus:
    """Concatenate in argument order, then optionally apply a seeded permutation."""
    out: list[str] = []
    for corpus in corpora:
        out.extend(MonoCorpus.of(corpus).lines)
    if shuffle:
        random.Random(seed).shuffle(out)
    return MonoCorpus(out)


def build_joint_labeled(gold: LabeledCorpus, pseudo: LabeledCorpus) -> LabeledCorpus:
    """Gold-then-pseudo concatenation; shuffling is left to the trainer."""
    if gold.schema is not pseudo.schema:
        raise ValidationError(
            f"schema mismatch: gold is {gold.schema.value}, pseudo is {pseudo.schema.value}"
        )
    return gold + pseudo
