"""Word-to-word synthesis of pseudo monolingual and pseudo labeled corpora.

Every token is looked up case-insensitively; covered tokens are replaced by
one of their candidate translations, the rest pass through unchanged. The
candidate draw for a position depends only on (seed, sentence index, token
index), so output is byte-identical across runs.

``synth_mono``, ``synth_labeled`` and ``coverage`` are thin calls into one
core (``_synthesize``):

- **Interning.** Each distinct token string is seen once (``_Types``): it
  gets a type id, its case-folded key is looked up in the lexicon, and the
  key's candidates are appended to one flat candidate table, so the type
  maps to a (first candidate, candidate count) range. A count of 0 means
  the key is not covered. Coverage counts come from the type ids and the
  key table, not from per-token set inserts.
- **Blocks.** The corpus is processed in fixed blocks of ``_BLOCK_SENTS``
  sentences, which bounds the per-position arrays. A block's sentences are
  taken as token lists once (a ``MonoCorpus`` splits its lines there), its
  type ids and candidate counts are gathered with numpy, every covered
  position draws at once, one object-array gather puts the chosen
  candidates in place, and the block is sliced back into rows, which go to
  the caller's sink before the next block starts. ``synth_mono``'s sink
  joins them into the lines of a ``MonoCorpus``, so no output token list
  outlives its block; ``synth_labeled``'s extends one new token column.
- **The draw.** A SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014)
  over the seed, sentence index and token index, computed in numpy
  ``uint64``, whose wraparound arithmetic equals the same formula over
  Python ints masked to 64 bits. The seed is reduced modulo 2**64 in Python
  first, so negative and huge seeds draw the same way, and every constant
  and shift count is an ``np.uint64`` so the arithmetic stays ``uint64``
  under both value-based casting and NEP 50. Blocking cannot change a draw:
  its only inputs are those three numbers.
- **Targets** are placed whole, as their tokens joined by single spaces,
  so a row item is an input token or a non-empty normalized target. When
  ``synth_mono`` joins a row into its line, a multi-token target's tokens
  take the source token's place, and the line needs no check.
  ``synth_labeled`` rejects multi-token targets before it calls the core,
  so labeled output keeps its token counts.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .corpus_io import LabeledCorpus, MonoCorpus, TokenizedCorpus
from .errors import ValidationError
from .lexicon import Lexicon

_BLOCK_SENTS = 1024

_MASK = (1 << 64) - 1
# SplitMix64 multipliers and increment. _K1 and _K4 only meet the seed,
# which is reduced in Python; _K2 and _K3 (also the finalizer's two
# multipliers) meet numpy arrays, so they are np.uint64.
_K1 = 0x9E3779B97F4A7C15
_K2 = np.uint64(0xBF58476D1CE4E5B9)
_K3 = np.uint64(0x94D049BB133111EB)
_K4 = 0x2545F4914F6CDD1D
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


@dataclass(frozen=True)
class SynthesisConfig:
    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, int):
            raise ValidationError("seed must be an integer")


@dataclass(frozen=True)
class CoverageReport:
    total_tokens: int
    replaced_tokens: int
    replacement_rate: float
    distinct_types: int
    covered_types: int
    sentences: int

    def to_dict(self) -> dict:
        return asdict(self)


class _Types(dict):
    """Token string -> type id; the first lookup of a string fills its row.

    ``first`` and ``count`` give each type's candidate range in ``cands``,
    which holds every target normalized to single-space-joined tokens.
    """

    def __init__(self, lex: Lexicon):
        super().__init__()
        self.entries = lex.entries
        self.first = array("q")
        self.count = array("q")
        self.ranges: dict[str, tuple[int, int]] = {}
        self.cands: list[str] = []
        self._cand_array = np.empty(0, dtype=object)

    def __missing__(self, token: str) -> int:
        key = token.casefold()
        span = self.ranges.get(key)
        if span is None:
            span = self.ranges[key] = self._add_candidates(key)
        self[token] = i = len(self.first)
        self.first.append(span[0])
        self.count.append(span[1])
        return i

    def _add_candidates(self, key: str) -> tuple[int, int]:
        start = len(self.cands)
        found = self.entries.get(key) or ()
        self.cands.extend(found)
        return start, len(found)

    def cand_array(self) -> np.ndarray:
        """The candidate table as an object array, remade when it grew."""
        if len(self._cand_array) != len(self.cands):
            self._cand_array = np.array(self.cands, dtype=object)
        return self._cand_array

    def key_counts(self) -> tuple[int, int]:
        """(distinct case-folded keys, covered keys) over every type seen."""
        return len(self.ranges), sum(n > 0 for _, n in self.ranges.values())


def _finalize(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a ``uint64`` array."""
    x ^= x >> _S30
    x *= _K2
    x ^= x >> _S27
    x *= _K3
    x ^= x >> _S31
    return x


def _synthesize(
    sentences,
    lex: Lexicon,
    cfg: SynthesisConfig | None,
    emit: Callable[[list[list[str]]], object] | None,
) -> CoverageReport:
    """The lookup/draw core: the coverage of ``sentences``, whose output
    rows go to ``emit`` one block at a time, in corpus order.

    Sentence ``k`` draws with sentence index ``k``. With ``cfg=None`` only
    the coverage is computed and ``emit`` is not called.
    """
    types = _Types(lex)
    total = replaced = 0
    if cfg is not None:
        seed_term = np.uint64((cfg.seed * _K1 + _K4) & _MASK)
    for lo in range(0, len(sentences), _BLOCK_SENTS):
        block = list(sentences[lo:lo + _BLOCK_SENTS])
        flat = list(chain.from_iterable(block))
        ids = np.fromiter(map(types.__getitem__, flat), dtype=np.intp, count=len(flat))
        count = np.frombuffer(types.count, dtype=np.int64)[ids]
        hit = np.flatnonzero(count)
        total += len(flat)
        replaced += len(hit)
        if cfg is None:
            continue

        lens = np.fromiter(map(len, block), dtype=np.intp, count=len(block))
        ends = np.cumsum(lens)
        starts = ends - lens
        sent = np.repeat(np.arange(len(block)), lens)[hit]
        tok = hit - starts[sent]
        with np.errstate(over="ignore"):
            sentence_index = (sent + lo).astype(np.uint64)
            x = seed_term + sentence_index * _K2 + tok.astype(np.uint64) * _K3
            draw = _finalize(x) % count[hit].astype(np.uint64)
        cidx = np.frombuffer(types.first, dtype=np.int64)[ids[hit]] + draw.astype(np.int64)

        tokens = np.array(flat, dtype=object)
        tokens[hit] = types.cand_array()[cidx]
        tokens = tokens.tolist()
        emit([tokens[a:b] for a, b in zip(starts.tolist(), ends.tolist())])

    distinct, covered = types.key_counts()
    report = CoverageReport(
        total_tokens=total,
        replaced_tokens=replaced,
        replacement_rate=replaced / total if total else 0.0,
        distinct_types=distinct,
        covered_types=covered,
        sentences=len(sentences),
    )
    return report


def synth_mono(
    corpus: MonoCorpus | TokenizedCorpus,
    lex: Lexicon,
    cfg: SynthesisConfig,
) -> tuple[MonoCorpus, CoverageReport]:
    """Pseudo monolingual synthesis: sentence i is translated with stream i.

    A list of token lists goes through ``MonoCorpus.of`` first, so a token
    that is empty or holds whitespace is a ``ValidationError``. The coverage
    report counts input positions, so replacement_rate is unaffected by
    multi-token expansion.
    """
    out = MonoCorpus()
    report = _synthesize(MonoCorpus.of(corpus), lex, cfg, out._append_rows)
    return out, report


def synth_labeled(
    corpus: LabeledCorpus,
    lex: Lexicon,
    cfg: SynthesisConfig,
) -> tuple[LabeledCorpus, CoverageReport]:
    """Pseudo labeled synthesis: tokens replaced 1:1, every annotation kept.

    The lexicon must contain single-token targets only, so token counts (and
    with them head indices) cannot change.
    """
    for source, cands in lex.entries.items():
        for target in cands:
            if " " in target:
                raise ValidationError(
                    f"lexicon entry {source!r} -> {target!r} has a multi-token target; "
                    "labeled synthesis requires a single-token-only lexicon"
                )

    tokens: list[str] = []
    report = _synthesize(corpus.token_rows(), lex, cfg, lambda rows: tokens.extend(chain(*rows)))
    return corpus._replace(tokens=tokens), report


def coverage(corpus: MonoCorpus | TokenizedCorpus | LabeledCorpus, lex: Lexicon) -> CoverageReport:
    """Count lexicon hits without synthesizing anything."""
    if isinstance(corpus, LabeledCorpus):
        corpus = corpus.token_rows()
    return _synthesize(corpus, lex, None, None)
