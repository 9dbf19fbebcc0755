"""EM-trained word-translation model (IBM Model 1) over a parallel corpus.

The translation table t(target | source) is kept sparse over the pairs that
co-occur in some sentence; a distinguished NULL source (id 0) lets target
words align to nothing.

Training and Viterbi alignment share one slot layout (``_slot_layout``). A
slot is one (sentence, target token, source position), position 0 being
NULL; the slots of one target token form its group, NULL first. Each slot
holds the index of its (source type, target type) pair among the sorted
distinct pair keys. One ``argsort`` of the slot keys finds them all: a
first-of-run mask over the sorted keys picks the distinct keys, and its
cumulative sum, scattered back through the sort order, gives each slot's
index. That is ``np.unique(keys, return_inverse=True)`` without its extra
slot-sized copies, which would set the peak memory of ``lex induce``.

EM runs on that layout. The E-step (``_em_numpy.estep_chunk``, in numpy)
spreads each group's posterior over its slots' pairs. It runs once per
fixed-size sentence chunk, which bounds its slot-sized temporaries, and the
chunk partials are summed in ascending chunk order.

Viterbi builds the same layout for the corpus it aligns and reads each
distinct pair's probability from the table with one batched
``searchsorted``. A segmented argmax over all groups at once replaces any
per-sentence loop: NULL's slot is masked, ``np.maximum.reduceat`` gives
each group's best probability, the first slot holding it is the best source
token (ties go to the lowest index), and the token links iff that
probability is at least NULL's.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..corpus_io import ParallelCorpus
from ..errors import ValidationError
from ..lexicon import UND
from . import _em_numpy

NULL_WORD = "<NULL>"

_CHUNK_SENTS = 1024

# The E-step is called through this module attribute rather than imported by
# name: the benchmark's tracer (perfbench/spans.py) finds it as
# ``_DEFAULT_KERNEL.estep_chunk`` and wraps it there to time the E-step.
_DEFAULT_KERNEL = _em_numpy


class Symmetrization(enum.Enum):
    INTERSECTION = "intersection"
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class AlignerConfig:
    iterations: int = 5
    min_count: int = 2  # "aligned more than once"
    symmetrization: Symmetrization = Symmetrization.INTERSECTION
    case_fold: bool = True
    keep_punct: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if self.min_count < 1:
            raise ValidationError("min_count must be >= 1")


@dataclass(frozen=True)
class SentenceAlignment:
    """Links (row_index, col_index) in the direction the model was trained;
    a column with no link is NULL-aligned."""

    links: frozenset[tuple[int, int]]
    src_len: int
    tgt_len: int

    def __post_init__(self):
        for i, j in self.links:
            if not (0 <= i < self.src_len and 0 <= j < self.tgt_len):
                raise ValidationError(
                    f"link ({i},{j}) outside sentence of size {self.src_len}x{self.tgt_len}"
                )


@dataclass(eq=False)
class TranslationTable:
    """Sparse t(target word | source word) with a NULL source row."""

    src_lang: str
    tgt_lang: str
    case_fold: bool
    src_words: list[str]           # index 0 is NULL_WORD
    tgt_words: list[str]
    log_likelihoods: list[float]
    _src_index: dict[str, int] = field(repr=False)
    _tgt_index: dict[str, int] = field(repr=False)
    _row_ptr: np.ndarray = field(repr=False)   # len(src_words)+1
    _col: np.ndarray = field(repr=False)       # target id per pair, sorted per row
    _t: np.ndarray = field(repr=False)         # probability per pair
    _keys: np.ndarray = field(repr=False)      # src_id * n_tgt + tgt_id, sorted

    @property
    def source_vocab_size(self) -> int:
        return len(self.src_words)  # includes NULL

    @property
    def target_vocab_size(self) -> int:
        return len(self.tgt_words)

    @property
    def final_log_likelihood(self) -> float:
        return self.log_likelihoods[-1]

    def _fold(self, word: str) -> str:
        return word.casefold() if self.case_fold else word

    def src_id(self, word: str) -> int:
        """Row of a source word; ``NULL_WORD`` names the NULL row."""
        return 0 if word == NULL_WORD else self._src_index.get(self._fold(word), -1)

    def tgt_id(self, word: str) -> int:
        return self._tgt_index.get(self._fold(word), -1)

    def prob(self, src_word: str, tgt_word: str) -> float:
        e = self.src_id(src_word)
        f = self.tgt_id(tgt_word)
        if e < 0 or f < 0:
            return 0.0
        lo, hi = self._row_ptr[e], self._row_ptr[e + 1]
        k = lo + np.searchsorted(self._col[lo:hi], f)
        if k < hi and self._col[k] == f:
            return float(self._t[k])
        return 0.0

    def candidates(self, src_word: str) -> list[tuple[str, float]]:
        """(target word, probability) pairs for a source word, best first."""
        e = self.src_id(src_word)
        if e < 0:
            return []
        lo, hi = self._row_ptr[e], self._row_ptr[e + 1]
        pairs = [(self.tgt_words[int(f)], float(p)) for f, p in zip(self._col[lo:hi], self._t[lo:hi])]
        pairs.sort(key=lambda x: (-x[1], x[0]))
        return pairs

    def probs(self) -> dict[str, dict[str, float]]:
        """Nested source → target → probability dict (small tables only)."""
        out: dict[str, dict[str, float]] = {}
        for e, word in enumerate(self.src_words):
            lo, hi = self._row_ptr[e], self._row_ptr[e + 1]
            out[word] = {
                self.tgt_words[int(f)]: float(p)
                for f, p in zip(self._col[lo:hi], self._t[lo:hi])
            }
        return out

    def row_sums(self) -> dict[str, float]:
        """Per-source-word probability mass (should be 1 for every row)."""
        sums = np.add.reduceat(self._t, self._row_ptr[:-1])
        return {w: float(s) for w, s in zip(self.src_words, sums)}


def _validate_corpus(corpus: ParallelCorpus) -> None:
    if not corpus:
        raise ValidationError("cannot train on an empty parallel corpus")
    for n, (s, t) in enumerate(corpus):
        if not s or not t:
            raise ValidationError(f"parallel pair {n} has an empty side")


def _source_fold(case_fold: bool):
    """How a corpus source token is keyed in the source index.

    A token spelled ``NULL_WORD`` must not take the NULL row: folding keys
    it apart from NULL, and without folding it is rejected.
    """
    if case_fold:
        return str.casefold

    def key(word: str) -> str:
        if word == NULL_WORD:
            raise ValidationError(
                f"source token {NULL_WORD!r} is reserved for the NULL word; "
                "it is only accepted with case folding")
        return word

    return key


def _token_ids(sentences, word_id) -> tuple[np.ndarray, np.ndarray]:
    """Per-sentence lengths and the flat token ids of ``sentences``.

    ``word_id`` is called once per distinct word, in order of first
    occurrence, so an id-assigning callback numbers types in corpus order.
    """
    ids = dict.fromkeys(itertools.chain.from_iterable(sentences))
    for word in ids:
        ids[word] = word_id(word)
    lens = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    flat = np.fromiter(map(ids.__getitem__, itertools.chain.from_iterable(sentences)),
                       dtype=np.int64, count=int(lens.sum()))
    return lens, flat


def _slot_layout(src_lens, src_flat, tgt_lens, tgt_flat, n_tgt):
    """The slots of a corpus and the type pair behind each slot.

    A slot is one (sentence, target token, source position) with position 0
    the NULL source (id 0); its group is its (sentence, target token), so a
    group holds the NULL slot and then one slot per source token, in order.
    A slot's pair key is ``src_id * n_tgt + tgt_id``, or -1 when either id
    is -1 (a word the table does not know).

    Returns ``group_ptr`` (slots of group g are ``group_ptr[g]:group_ptr[g+1]``),
    ``g_flat`` (group of each slot), the sorted distinct ``pair_keys`` and
    ``k_flat`` (index into ``pair_keys`` of each slot's key).
    """
    n_sents = len(src_lens)
    widths = np.repeat(src_lens + 1, tgt_lens)  # slots per group
    n_groups = len(widths)
    group_ptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(widths, out=group_ptr[1:])
    n_slots = int(group_ptr[-1])

    # A "block" is a sentence's NULL id followed by its source ids; the
    # source id of a slot is read from its sentence's block at the slot's
    # offset within its group.
    block_ptr = np.zeros(n_sents + 1, dtype=np.int64)
    np.cumsum(src_lens + 1, out=block_ptr[1:])
    blocks = np.zeros(int(block_ptr[-1]), dtype=np.int64)
    put_mask = np.ones(len(blocks), dtype=bool)
    put_mask[block_ptr[:-1]] = False
    blocks[put_mask] = src_flat
    sentence_of_group = np.repeat(np.arange(n_sents, dtype=np.int64), tgt_lens)
    shift = np.repeat(group_ptr[:-1] - block_ptr[sentence_of_group], widths)
    slot_e = blocks[np.arange(n_slots, dtype=np.int64) - shift]
    del sentence_of_group, shift, blocks
    slot_f = np.repeat(tgt_flat, widths)

    keys = slot_e * n_tgt
    keys += slot_f
    keys[(slot_e < 0) | (slot_f < 0)] = -1
    del slot_e, slot_f
    # np.unique(keys, return_inverse=True) done by hand: it would copy keys
    # and hold about six slot-sized arrays at once; here each temporary is
    # dropped as soon as it is dead, so at most three are alive together.
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(n_slots, dtype=bool)  # first slot of each run of equal keys
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pair_keys = keys[first]
    del keys
    ranks = np.cumsum(first, dtype=np.int64)
    del first
    ranks -= 1
    k_flat = np.empty(n_slots, dtype=np.int64)
    k_flat[order] = ranks
    del order, ranks
    # made last, so it is not alive during the sort
    g_flat = np.repeat(np.arange(n_groups, dtype=np.int64), widths)
    return group_ptr, g_flat, pair_keys, k_flat


def train_model1(
    corpus: ParallelCorpus,
    cfg: AlignerConfig = AlignerConfig(),
    src_lang: str = UND,
    tgt_lang: str = UND,
) -> TranslationTable:
    """Train t(target | source) by EM.

    t is initialized uniform over the target types co-occurring with each
    source type. Each iteration distributes every target token's posterior
    over the sentence's source tokens plus NULL, renormalizes per source
    type, and records the corpus log-likelihood under the pre-update table.
    """
    _validate_corpus(corpus)
    src_fold = _source_fold(cfg.case_fold)
    fold = str.casefold if cfg.case_fold else str

    src_index: dict[str, int] = {NULL_WORD: 0}
    tgt_index: dict[str, int] = {}
    src_lens, src_flat = _token_ids(
        [s for s, _ in corpus], lambda w: src_index.setdefault(src_fold(w), len(src_index)))
    tgt_lens, tgt_flat = _token_ids(
        [t for _, t in corpus], lambda w: tgt_index.setdefault(fold(w), len(tgt_index)))
    n_src = len(src_index)
    n_tgt = len(tgt_index)

    group_ptr, g_flat, pair_keys, k_flat = _slot_layout(
        src_lens, src_flat, tgt_lens, tgt_flat, n_tgt)
    n_pairs = len(pair_keys)
    pair_e = pair_keys // n_tgt
    row_ptr = np.searchsorted(pair_e, np.arange(n_src + 1, dtype=np.int64))
    row_len = np.diff(row_ptr)
    col = pair_keys % n_tgt

    t = 1.0 / np.repeat(row_len, row_len).astype(np.float64)

    n_sents = len(corpus)
    sent_groups = np.zeros(n_sents + 1, dtype=np.int64)
    np.cumsum(tgt_lens, out=sent_groups[1:])
    chunks = []
    for lo in range(0, n_sents, _CHUNK_SENTS):
        hi = min(lo + _CHUNK_SENTS, n_sents)
        chunks.append((int(sent_groups[lo]), int(sent_groups[hi])))

    log_likelihoods: list[float] = []
    for _ in range(cfg.iterations):
        counts = np.zeros(n_pairs)
        ll = 0.0
        for g_lo, g_hi in chunks:
            part, part_ll = _DEFAULT_KERNEL.estep_chunk(
                t, k_flat, g_flat, group_ptr, g_lo, g_hi, n_pairs)
            counts += part
            ll += part_ll
        log_likelihoods.append(ll)
        row_sums = np.add.reduceat(counts, row_ptr[:-1])
        t = counts / np.repeat(row_sums, row_len)

    return TranslationTable(
        src_lang=src_lang,
        tgt_lang=tgt_lang,
        case_fold=cfg.case_fold,
        src_words=list(src_index),
        tgt_words=list(tgt_index),
        log_likelihoods=log_likelihoods,
        _src_index=src_index,
        _tgt_index=tgt_index,
        _row_ptr=row_ptr,
        _col=col,
        _t=t,
        _keys=pair_keys,
    )


def viterbi_align(corpus: ParallelCorpus, table: TranslationTable) -> list[SentenceAlignment]:
    """Hard-align each target token to its most probable source token.

    A NULL win leaves the target token unlinked; ties go to the lowest source
    index, and NULL loses ties to any real token. Words or pairs the table
    does not know have probability 0.
    """
    src_fold = _source_fold(table.case_fold)
    src_lens, src_flat = _token_ids(
        [s for s, _ in corpus], lambda w: table._src_index.get(src_fold(w), -1))
    tgt_lens, tgt_flat = _token_ids([t for _, t in corpus], table.tgt_id)
    group_ptr, g_flat, pair_keys, k_flat = _slot_layout(
        src_lens, src_flat, tgt_lens, tgt_flat, table.target_vocab_size)

    pos = np.searchsorted(table._keys, pair_keys)
    hit = pos < len(table._keys)
    hit[hit] = table._keys[pos[hit]] == pair_keys[hit]
    pair_t = np.zeros(len(pair_keys))
    pair_t[hit] = table._t[pos[hit]]
    slot_t = pair_t[k_flat]
    del k_flat

    # Segmented argmax over each group's source slots: the NULL slot is
    # masked below every probability, a group links iff its maximum beats or
    # ties NULL, and the first slot at the maximum is the lowest-index best.
    starts = group_ptr[:-1]
    p_null = slot_t[starts]
    slot_t[starts] = -1.0
    best_t = np.maximum.reduceat(slot_t, starts)
    linked = np.flatnonzero(best_t >= p_null)
    at_best = np.flatnonzero(slot_t == best_t[g_flat])  # each group has one
    link_start = starts[linked]
    link_i = (at_best[np.searchsorted(at_best, link_start)] - link_start - 1).tolist()

    sent_groups = np.zeros(len(corpus) + 1, dtype=np.int64)
    np.cumsum(tgt_lens, out=sent_groups[1:])
    sent = np.searchsorted(sent_groups, linked, side="right") - 1
    link_j = (linked - sent_groups[sent]).tolist()
    link_ptr = np.searchsorted(linked, sent_groups).tolist()
    return [
        SentenceAlignment(frozenset(zip(link_i[lo:hi], link_j[lo:hi])),
                          src_len=len(s), tgt_len=len(t))
        for (s, t), lo, hi in zip(corpus, link_ptr, link_ptr[1:])
    ]


def swap_corpus(corpus: ParallelCorpus) -> ParallelCorpus:
    """Reverse the direction of a parallel corpus."""
    return [(t, s) for s, t in corpus]
