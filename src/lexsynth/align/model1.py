"""EM-trained word-translation model (IBM Model 1) over a parallel corpus.

The translation table t(target | source) is kept sparse over the pairs that
co-occur in some sentence; a distinguished NULL source (id 0) lets target
words align to nothing. Its one pair index is the sorted pair keys
``src_id * n_tgt + tgt_id`` (``_keys``), aligned with the probabilities
(``_t``): a pair is found with ``searchsorted``, and a key's source and
target ids are ``key // n_tgt`` and ``key % n_tgt``.

Training and Viterbi alignment share one slot layout (``_slot_layout``). A
slot is one (sentence, target token, source position), position 0 being
NULL; the slots of one target token form its group, NULL first, and
``group_ptr`` gives each group's slot range. Each slot holds the int32 index
of its (source type, target type) pair among the sorted distinct pair keys
(``k_flat``). One in-place sort finds them all: each slot's pair key + 1 is
packed above the slot's own index into one int64, so sorting the packed keys
orders the slots by key, the low bits give the order, and a first-of-run
mask and its cumulative sum give each slot's index. The packed key must fit
in 63 bits: ``ValidationError`` is raised when the slot count, rounded up to
a power of two, times the key space (source types x target types, plus one
for unknown words) exceeds 2**63, or when there are more than 2**31 slots
(the int32 limit). No per-slot group index is stored; code that needs one
makes it from ``group_ptr`` with ``np.repeat``.

EM runs on that layout. The E-step (``_em_numpy.estep_chunk``, in numpy)
spreads each group's posterior over its slots' pairs. It runs once per
fixed-size sentence chunk, which bounds its slot-sized temporaries, and the
chunk partials are summed in ascending chunk order.

Each direction's layout is built once. ``train_model1`` keeps the token ids
it trained on and ``k_flat`` in the table. ``viterbi_align`` always encodes
the corpus it aligns; when those ids equal the stored ones, the layout would
be the same and its pairs are the table's own, in order, so each slot's
probability is read straight from the table. Any other corpus, including
the training corpus changed in place, gets its own layout, and each
distinct pair's probability is found with one batched ``searchsorted``.
Either way one segmented argmax over all groups replaces any per-sentence
loop: NULL's slot is masked, ``np.maximum.reduceat`` gives each group's best
probability, the first slot holding it is the best source token (ties go
to the lowest index), and the token links iff that probability is at least
NULL's.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..corpus_io import ParallelCorpus
from ..errors import ValidationError
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


class _TrainedLayout(NamedTuple):
    """The corpus a table was trained on and its slot layout's pair index
    per slot (see ``_slot_layout``)."""

    ids: tuple  # src_lens, src_flat, tgt_lens, tgt_flat (see _token_ids)
    k_flat: np.ndarray


@dataclass(eq=False)
class TranslationTable:
    """Sparse t(target word | source word) with a NULL source row."""

    case_fold: bool
    src_words: list[str]           # index 0 is NULL_WORD
    tgt_words: list[str]
    log_likelihoods: list[float]
    _src_index: dict[str, int] = field(repr=False)
    _tgt_index: dict[str, int] = field(repr=False)
    _t: np.ndarray = field(repr=False)         # probability per pair
    _keys: np.ndarray = field(repr=False)      # src_id * n_tgt + tgt_id, sorted
    # set by train_model1; None for a table built any other way
    _trained_on: _TrainedLayout | None = field(default=None, repr=False)

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
        key = e * self.target_vocab_size + f
        k = np.searchsorted(self._keys, key)
        if k < len(self._keys) and self._keys[k] == key:
            return float(self._t[k])
        return 0.0

    def probs(self) -> dict[str, dict[str, float]]:
        """Nested source → target → probability dict (small tables only)."""
        out: dict[str, dict[str, float]] = {word: {} for word in self.src_words}
        src_ids, tgt_ids = np.divmod(self._keys, self.target_vocab_size)
        for e, f, p in zip(src_ids.tolist(), tgt_ids.tolist(), self._t.tolist()):
            out[self.src_words[e]][self.tgt_words[f]] = p
        return out

    def row_sums(self) -> dict[str, float]:
        """Per-source-word probability mass (should be 1 for every row)."""
        rows = np.arange(self.source_vocab_size)
        row_start = np.searchsorted(self._keys // self.target_vocab_size, rows)
        sums = np.add.reduceat(self._t, row_start)
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


def _group_ptr(src_lens, tgt_lens) -> np.ndarray:
    """Slot offsets of the groups: group g's slots are ``ptr[g]:ptr[g+1]``."""
    widths = np.repeat(src_lens + 1, tgt_lens)  # slots per group
    ptr = np.zeros(len(widths) + 1, dtype=np.int64)
    np.cumsum(widths, out=ptr[1:])
    return ptr


def _slot_layout(src_lens, src_flat, tgt_lens, tgt_flat, n_src, n_tgt):
    """The slots of a corpus and the type pair behind each slot.

    A slot is one (sentence, target token, source position) with position 0
    the NULL source (id 0); its group is its (sentence, target token), so a
    group holds the NULL slot and then one slot per source token, in order.
    A slot's pair key is ``src_id * n_tgt + tgt_id``, or -1 when either id
    is -1 (a word the table does not know).

    Returns ``group_ptr`` (see ``_group_ptr``), the sorted distinct
    ``pair_keys`` and ``k_flat`` (int32 index into ``pair_keys`` of each
    slot's key). Raises ``ValidationError`` when the slots and the key space
    are too many to pack into one int64 sort key.
    """
    n_sents = len(src_lens)
    group_ptr = _group_ptr(src_lens, tgt_lens)
    widths = np.diff(group_ptr)
    n_slots = int(group_ptr[-1])
    # A slot's sort key packs its pair key + 1 above ``bits`` low bits that
    # hold the slot's index, so it must fit in 63 bits; the index of a
    # slot's pair must fit in int32.
    bits = max(n_slots - 1, 0).bit_length()
    key_space = n_src * n_tgt + 1  # every pair key and -1
    if key_space << bits > 1 << 63 or n_slots > 1 << 31:
        raise ValidationError(
            f"corpus too large to align: {n_slots} slots (at most 2**31) and a "
            f"key space of {key_space} pair keys do not fit one 63-bit sort key")

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

    packed = slot_e * n_tgt
    packed += slot_f
    packed[(slot_e < 0) | (slot_f < 0)] = -1
    del slot_e, slot_f
    packed += 1
    packed <<= bits
    packed |= np.arange(n_slots, dtype=np.int64)
    # Packed keys are distinct, so an in-place sort orders the slots by key
    # and then by index; each temporary is dropped as soon as it is dead.
    packed.sort()
    order = packed & ((1 << bits) - 1)  # slot at each sorted position
    packed >>= bits
    first = np.empty(n_slots, dtype=bool)  # first slot of each run of equal keys
    first[:1] = True
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    pair_keys = packed[first] - 1
    del packed
    ranks = np.cumsum(first, dtype=np.int32)
    del first
    ranks -= 1
    k_flat = np.empty(n_slots, dtype=np.int32)
    k_flat[order] = ranks
    return group_ptr, pair_keys, k_flat


def train_model1(corpus: ParallelCorpus, cfg: AlignerConfig = AlignerConfig()) -> TranslationTable:
    """Train t(target | source) by EM.

    t is initialized uniform over the target types co-occurring with each
    source type. Each iteration distributes every target token's posterior
    over the sentence's source tokens plus NULL, renormalizes per source
    type, and records the corpus log-likelihood under the pre-update table.
    The table keeps the corpus's token ids and slot layout, which
    ``viterbi_align`` reuses on the same corpus.
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

    group_ptr, pair_keys, k_flat = _slot_layout(
        src_lens, src_flat, tgt_lens, tgt_flat, n_src, n_tgt)
    n_pairs = len(pair_keys)
    row_ptr = np.searchsorted(pair_keys // n_tgt, np.arange(n_src + 1, dtype=np.int64))
    row_len = np.diff(row_ptr)

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
                t, k_flat, group_ptr, g_lo, g_hi, n_pairs)
            counts += part
            ll += part_ll
        log_likelihoods.append(ll)
        row_sums = np.add.reduceat(counts, row_ptr[:-1])
        t = counts / np.repeat(row_sums, row_len)

    return TranslationTable(
        case_fold=cfg.case_fold,
        src_words=list(src_index),
        tgt_words=list(tgt_index),
        log_likelihoods=log_likelihoods,
        _src_index=src_index,
        _tgt_index=tgt_index,
        _t=t,
        _keys=pair_keys,
        _trained_on=_TrainedLayout((src_lens, src_flat, tgt_lens, tgt_flat), k_flat),
    )


def viterbi_align(corpus: ParallelCorpus, table: TranslationTable) -> list[SentenceAlignment]:
    """Hard-align each target token to its most probable source token.

    A NULL win leaves the target token unlinked; ties go to the lowest source
    index, and NULL loses ties to any real token. Words or pairs the table
    does not know have probability 0.
    """
    src_fold = _source_fold(table.case_fold)
    ids = (*_token_ids([s for s, _ in corpus],
                       lambda w: table._src_index.get(src_fold(w), -1)),
           *_token_ids([t for _, t in corpus], table.tgt_id))
    src_lens, src_flat, tgt_lens, tgt_flat = ids
    trained = table._trained_on
    if trained is not None and all(map(np.array_equal, ids, trained.ids)):
        # The corpus EM ran on: its layout's pairs are the table's, in order.
        group_ptr = _group_ptr(src_lens, tgt_lens)
        slot_t = table._t[trained.k_flat]
    else:
        group_ptr, pair_keys, k_flat = _slot_layout(
            src_lens, src_flat, tgt_lens, tgt_flat,
            table.source_vocab_size, table.target_vocab_size)
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
    # each group has one slot at its maximum
    at_best = np.flatnonzero(slot_t == np.repeat(best_t, np.diff(group_ptr)))
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
