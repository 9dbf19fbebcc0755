"""Alignment symmetrization and lexicon induction from link counts.

Each function takes a sequence of ``SentenceAlignment`` or an
``Alignments`` and works on its sorted link keys as arrays: intersection is
key membership, induction counts pair ids made from the encoded corpus's
type ids, and the writer formats each distinct ``i-j`` once.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path

import numpy as np

from ..corpus_io import ParallelCorpus
from ..errors import ValidationError
from ..lexicon import Lexicon, Provenance
from .model1 import (
    AlignerConfig,
    Alignments,
    EncodedCorpus,
    SentenceAlignment,
    Symmetrization,
    _offsets,
)


def symmetrize(
    forward: Alignments | list[SentenceAlignment],
    backward: Alignments | list[SentenceAlignment],
    method: Symmetrization = Symmetrization.INTERSECTION,
) -> Alignments:
    """Combine directional alignments; output is in the forward orientation.

    Intersection keeps (i, j) iff the forward side links (i, j) and the
    backward side links (j, i).
    """
    if len(forward) != len(backward):
        raise ValidationError(
            f"alignment count mismatch: {len(forward)} forward vs {len(backward)} backward"
        )
    fwd = Alignments.of(forward)
    if method is Symmetrization.FORWARD:
        return fwd
    bwd = Alignments.of(backward)
    bad = np.flatnonzero((fwd.src_lens != bwd.tgt_lens) | (fwd.tgt_lens != bwd.src_lens))
    if len(bad):
        n = bad[0]
        raise ValidationError(
            f"sentence {n}: forward is {fwd.src_lens[n]}x{fwd.tgt_lens[n]} but "
            f"backward is {bwd.src_lens[n]}x{bwd.tgt_lens[n]}"
        )
    sent, i, j = bwd.links()
    flipped = Alignments.from_links(fwd.src_lens, fwd.tgt_lens, sent, j, i)
    if method is Symmetrization.BACKWARD:
        return flipped
    kept = np.isin(fwd.keys, flipped.keys, assume_unique=True)
    return Alignments(fwd.src_lens, fwd.tgt_lens, fwd.keys[kept])


def _is_punct(word: str) -> bool:
    return len(word) == 1 and unicodedata.category(word).startswith("P")


def induce_lexicon(
    corpus: ParallelCorpus,
    alignments: Alignments | list[SentenceAlignment],
    cfg: AlignerConfig = AlignerConfig(),
) -> Lexicon:
    """Turn repeatedly-aligned word pairs into lexicon entries.

    Counts every linked (source type, target type) occurrence over the corpus
    and keeps the pairs seen at least cfg.min_count times, ordered by
    descending count then lexicographically. Pairs where either side is a
    lone punctuation character are dropped unless cfg.keep_punct.
    """
    corpus = EncodedCorpus.of(corpus, cfg.case_fold)
    src, tgt = corpus.src, corpus.tgt
    alignments = Alignments.of(alignments)
    if len(alignments) != len(corpus):
        raise ValidationError(
            f"{len(alignments)} alignments for {len(corpus)} sentence pairs"
        )
    sent, i, j = alignments.links()
    bad = np.flatnonzero((i >= src.lens[sent]) | (j >= tgt.lens[sent]))
    if len(bad):
        b = bad[0]
        n = sent[b]
        raise ValidationError(
            f"sentence {n}: link ({i[b]},{j[b]}) out of range for "
            f"{src.lens[n]}x{tgt.lens[n]} pair"
        )
    n_tgt = len(tgt.types)
    pair_ids = (src.flat[_offsets(src.lens)[sent] + i] * n_tgt
                + tgt.flat[_offsets(tgt.lens)[sent] + j])
    pair_ids, counts = np.unique(pair_ids, return_counts=True)
    keep = counts >= cfg.min_count
    e_ids, f_ids = np.divmod(pair_ids[keep], n_tgt)
    kept = []
    for count, e, f in zip(counts[keep].tolist(), e_ids.tolist(), f_ids.tolist()):
        s, t = src.types[e], tgt.types[f]
        if cfg.keep_punct or not (_is_punct(s) or _is_punct(t)):
            kept.append((-count, s, t))
    kept.sort()
    lex = Lexicon()
    for _, s, t in kept:
        lex.add(s, t, Provenance.INDUCED)
    return lex


def write_alignments(alignments: Alignments | list[SentenceAlignment], path) -> None:
    """One sentence per line in the conventional space-separated i-j format,
    links in (i, j) order."""
    alignments = Alignments.of(alignments)
    sent, i, j = alignments.links()
    width = int(j.max(initial=-1)) + 1
    codes, inverse = np.unique(i * width + j, return_inverse=True)
    names = np.array([f"{c // width}-{c % width}" for c in codes.tolist()], dtype=object)
    text = names[inverse].tolist()
    ptr = _offsets(np.bincount(sent, minlength=len(alignments))).tolist()
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(" ".join(text[lo:hi]) + "\n" for lo, hi in zip(ptr, ptr[1:]))
