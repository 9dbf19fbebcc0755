"""EM-trained word-translation model (IBM Model 1) over a parallel corpus.

The translation table t(target | source) is kept sparse over the pairs that
co-occur in some sentence; a distinguished NULL source (id 0) lets target
words align to nothing. Its one pair index is the sorted pair keys
``src_id * n_tgt + tgt_id`` (``_keys``), aligned with the probabilities
(``_t``): a pair is found with ``searchsorted``, and a key's source and
target ids are ``key // n_tgt`` and ``key % n_tgt``.

Training and Viterbi alignment share one slot layout (``_chunk_layouts``),
built one ``_CHUNK_SENTS``-sentence chunk at a time. A slot is one
(sentence, target token, source position), position 0 being NULL; the slots
of one target token form its group, NULL first, and a chunk's ``group_ptr``
gives each of its groups' slot ranges. Groups never cross chunks. Each slot
holds ``local``, the int32 index of its (source type, target type) pair
among the chunk's sorted distinct pair keys. The one size limit is that
int32 index: ``ValidationError`` is raised, before any slot array is made,
when a chunk has more than 2**31 slots. No per-slot group index is stored;
code that needs one makes it from ``group_ptr`` with ``np.repeat``.

Both the chunk layout and the table merge find distinct keys with
``_unique_inverse``: each key is packed above its index in one int64 word,
``key << b | index``, and the words are sorted in place, so no argsort and
no ``searchsorted`` runs. A chunk packs its slots' plain pair keys. Keys
too large to share a word with the index bits go to ``np.unique`` instead,
so there is no limit on the number of types; a real corpus's keys never
do (``n_src * n_tgt`` is about 2**24 at 100k verse pairs). Training merges
the chunks' distinct keys with one more packed sort, which gives the
table's ``_keys`` and, for each chunk, the table pair ids ``pairs`` of its
keys. EM runs on those chunks. The E-step
(``_em_numpy.estep_chunk``, in numpy) takes a chunk's pair probabilities
``t[pairs]``, spreads each group's posterior over its slots' pairs and
returns counts for the chunk's pairs only; they are added into the table's
counts in ascending chunk order.

The three corpus consumers, ``train_model1``, ``viterbi_align`` and
``induce_lexicon``, read a corpus as an ``EncodedCorpus``: the
``corpus_io.ParallelPairs`` it was made from, its lines shared, not copied,
and its ``dropped`` kept, with each ``MonoCorpus`` side also holding the
sentence lengths, one flat array of type ids and the folded types in order
of first occurrence, all made by ``_encode``. No token list per sentence is
kept; indexing or iterating the corpus splits the lines. Each function
accepts one or encodes a plain corpus itself, so a caller that passes one
encoded corpus to all three (and its ``swapped()`` for the other direction,
which exchanges the sides without encoding or copying) encodes each side
once; ``lex induce`` does that. A table's source row is its type id + 1,
row 0 being NULL; the layout maps ids to rows one chunk at a time.

Each direction's layout is built once. ``train_model1`` keeps the encoded
corpus it trained on and its chunks in the table. When ``viterbi_align``
gets a corpus with the same types and type ids, the layout would be the
same, so each chunk's pair probabilities are read straight from the table
with ``pairs``. Any other corpus, including the training corpus changed in
place, gets its own layout: each of its types, not each token, is mapped to
the table's ids, and each chunk's distinct pairs are found in the table with
one batched ``searchsorted``. Either way one segmented argmax per chunk
replaces any per-sentence loop: NULL's slot is masked,
``np.maximum.reduceat`` gives each group's best probability, the first slot
holding it is the best source token (ties go to the lowest index), and the
token links iff that probability is at least NULL's.

The links come back as ``Alignments``: the sentence shapes and one sorted
int64 key per link, ``base[sentence] + i * tgt_len + j``, made from each
linked group's sentence, source index and target index and sorted once.
Symmetrization, induction and the alignment writer (``induce.py``) work on
those keys; per-sentence ``SentenceAlignment`` views are built only on
indexing or iteration.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..corpus_io import MonoCorpus, ParallelCorpus, ParallelPairs
from ..errors import ValidationError
from . import _em_numpy

NULL_WORD = "<NULL>"

_CHUNK_SENTS = 1024

# Bits of one packed sort word (see _unique_inverse): a signed int64 word
# holds 63. Tests lower it to take the np.unique fallback.
_PACK_BITS = 63

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


class Alignments(Sequence):
    """Every sentence's links, as one sorted int64 key array.

    Sentence k is ``src_lens[k]`` x ``tgt_lens[k]``; its link (i, j) has the
    key ``base[k] + i * tgt_lens[k] + j`` with ``base = _offsets(src_lens *
    tgt_lens)``, so key order is (sentence, i, j) order and an empty
    sentence takes no key space. Indexing or iterating builds validated
    ``SentenceAlignment`` views; a slice is the ``Alignments`` of its
    sentences.
    """

    def __init__(self, src_lens: np.ndarray, tgt_lens: np.ndarray, keys: np.ndarray):
        self.src_lens = src_lens
        self.tgt_lens = tgt_lens
        self.keys = keys
        self._base = _offsets(src_lens * tgt_lens)

    @classmethod
    def from_links(cls, src_lens, tgt_lens, sent, i, j) -> Alignments:
        """The alignments holding each link (sent[n], i[n], j[n]); the links
        must be distinct."""
        keys = _offsets(src_lens * tgt_lens)[sent] + i * tgt_lens[sent] + j
        keys.sort()
        return cls(src_lens, tgt_lens, keys)

    @classmethod
    def of(cls, alignments) -> Alignments:
        """``alignments`` itself if it is an ``Alignments``, else its
        ``SentenceAlignment`` items gathered into one."""
        if isinstance(alignments, cls):
            return alignments
        alignments = list(alignments)
        n = len(alignments)
        src_lens = np.fromiter((a.src_len for a in alignments), dtype=np.int64, count=n)
        tgt_lens = np.fromiter((a.tgt_len for a in alignments), dtype=np.int64, count=n)
        counts = np.fromiter((len(a.links) for a in alignments), dtype=np.int64, count=n)
        links = np.array([link for a in alignments for link in a.links],
                         dtype=np.int64).reshape(-1, 2)
        sent = np.repeat(np.arange(n), counts)
        return cls.from_links(src_lens, tgt_lens, sent, links[:, 0], links[:, 1])

    def links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sentence, i and j of every link, in key order."""
        sent = np.repeat(np.arange(len(self)), np.diff(np.searchsorted(self.keys, self._base)))
        i, j = np.divmod(self.keys - self._base[sent], self.tgt_lens[sent])
        return sent, i, j

    def __len__(self) -> int:
        return len(self.src_lens)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Alignments.of([self[n] for n in range(len(self))[k]])
        k = range(len(self))[k]  # negative indexes; IndexError past the end
        lo, hi = np.searchsorted(self.keys, self._base[k:k + 2])
        [view] = Alignments(self.src_lens[k:k + 1], self.tgt_lens[k:k + 1],
                            self.keys[lo:hi] - self._base[k])
        return view

    def __iter__(self):
        _, i, j = self.links()
        pairs = list(zip(i.tolist(), j.tolist()))
        ptr = np.searchsorted(self.keys, self._base).tolist()
        for lo, hi, src_len, tgt_len in zip(ptr, ptr[1:], self.src_lens.tolist(),
                                            self.tgt_lens.tolist()):
            yield SentenceAlignment(frozenset(pairs[lo:hi]), src_len=src_len, tgt_len=tgt_len)


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
    # set by train_model1 to the encoded corpus it trained on and, per chunk
    # (see _chunk_layouts), group_ptr, the table pair index of each of the
    # chunk's distinct pairs and local; None for a table built any other way
    _trained_on: tuple[EncodedCorpus, list] | None = field(default=None, repr=False)

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
        return float(self._lookup(np.array([e * len(self.tgt_words) + f]))[0])

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """The probability of each pair key, 0 for a pair the table lacks."""
        pos = np.searchsorted(self._keys, keys)
        hit = pos < len(self._keys)
        hit[hit] = self._keys[pos[hit]] == keys[hit]
        pair_t = np.zeros(len(keys))
        pair_t[hit] = self._t[pos[hit]]
        return pair_t

    def probs(self) -> dict[str, dict[str, float]]:
        """Nested source → target → probability dict (small tables only)."""
        out: dict[str, dict[str, float]] = {word: {} for word in self.src_words}
        src_ids, tgt_ids = np.divmod(self._keys, len(self.tgt_words))
        for e, f, p in zip(src_ids.tolist(), tgt_ids.tolist(), self._t.tolist()):
            out[self.src_words[e]][self.tgt_words[f]] = p
        return out

    def row_sums(self) -> dict[str, float]:
        """Per-source-word probability mass (should be 1 for every row)."""
        sums = np.bincount(self._keys // len(self.tgt_words), weights=self._t,
                           minlength=len(self.src_words))
        return {w: float(s) for w, s in zip(self.src_words, sums)}


class _Side(MonoCorpus):
    """One side of an encoded corpus (see ``_encode``): the ``MonoCorpus`` of
    its ``lines``, with ``lens``, the tokens per sentence, ``flat``, every
    token's type id sentence after sentence, and ``types``, the folded type
    of each id in first-occurrence order."""

    def __init__(self, lines: list[str], lens: np.ndarray, flat: np.ndarray, types: list[str]):
        super().__init__(lines)
        self.lens, self.flat, self.types = lens, flat, types


class _TypeIds(dict):
    """Word -> id of its folded type, types numbered in order of first lookup."""

    def __init__(self, fold):
        super().__init__()
        self.fold, self.types = fold, {}

    def __missing__(self, word: str) -> int:
        self[word] = i = self.types.setdefault(self.fold(word), len(self.types))
        return i


def _encode(lines: list[str], fold) -> _Side:
    """Number the folded types of the sentences held in ``lines`` from 0 in
    order of first occurrence, and give each token its type's id.

    The lines are split ``_CHUNK_SENTS`` at a time: splitting a whole side
    at once leaves the memory of all its token strings behind, under the EM
    working set, and looking up each line's words alone is slower."""
    ids = _TypeIds(fold)
    lens: list[int] = []

    def batches():
        for lo in range(0, len(lines), _CHUNK_SENTS):
            rows = list(map(str.split, lines[lo:lo + _CHUNK_SENTS]))
            lens.extend(map(len, rows))
            yield from rows

    flat = np.fromiter(map(ids.__getitem__, itertools.chain.from_iterable(batches())),
                       dtype=np.int64)
    return _Side(lines, np.array(lens, dtype=np.int64), flat, list(ids.types))


class EncodedCorpus(ParallelPairs):
    """A ``ParallelPairs`` with each side encoded once, for ``train_model1``,
    ``viterbi_align`` and ``induce_lexicon``.

    ``src`` and ``tgt`` are ``MonoCorpus`` sides that also hold their
    sentence lengths, flat type ids and types, folded with ``str.casefold``
    when ``case_fold`` is set. Items, slices, iteration, ``==``, ``repr``
    and ``dropped`` are those of a ``ParallelPairs``, so two encoded corpora
    with the same text compare equal whatever their folding. ``swapped``
    reverses the direction without encoding or copying.
    """

    def __init__(self, src: _Side, tgt: _Side, case_fold: bool, dropped: tuple[int, ...] = ()):
        super().__init__(src, tgt, dropped)
        self.case_fold = case_fold

    @classmethod
    def of(cls, corpus, case_fold: bool = True) -> EncodedCorpus:
        """``corpus`` itself if it is an ``EncodedCorpus`` folded as
        ``case_fold`` says, else its sides' lines encoded, keeping its
        ``dropped``.

        The lines of an ``EncodedCorpus`` or a ``ParallelPairs`` are used as
        they are. Any other corpus of ``(source, target)`` token lists goes
        through ``ParallelPairs.of``, so a token that is empty or holds
        whitespace is a ``ValidationError``.
        """
        if not isinstance(corpus, cls):
            corpus = ParallelPairs.of(corpus)
        elif corpus.case_fold == case_fold:
            return corpus
        fold = str.casefold if case_fold else str
        return cls(_encode(corpus.src.lines, fold), _encode(corpus.tgt.lines, fold), case_fold,
                   corpus.dropped)

    def swapped(self) -> EncodedCorpus:
        """The corpus with source and target exchanged."""
        return EncodedCorpus(self.tgt, self.src, self.case_fold, self.dropped)


def _check_source_types(types: list[str], case_fold: bool) -> None:
    """A source token spelled ``NULL_WORD`` must not take the NULL row:
    folding keys it apart from NULL, and without folding it is rejected."""
    if not case_fold and NULL_WORD in types:
        raise ValidationError(f"source token {NULL_WORD!r} is reserved for the NULL word; "
                              "it is only accepted with case folding")


def _offsets(lens) -> np.ndarray:
    """Offsets of consecutive runs of the given lengths: run i is
    ``ptr[i]:ptr[i+1]``."""
    ptr = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    return ptr


def _unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for non-negative int64
    values, the inverse as int32, made with one in-place sort of packed
    words. ``values`` is overwritten.

    Value i is packed above its index, ``values[i] << b | i`` with ``b`` the
    bit width of the largest index, so one plain sort orders the values and
    carries each one's index along. The first of each run of equal high
    parts is a distinct value, and the running count of run starts,
    scattered back through the low parts, is the inverse. Values that do not
    fit beside ``b`` index bits in ``_PACK_BITS`` bits (the largest at or
    above ``2**(_PACK_BITS - b)``) go to ``np.unique`` instead; the pair keys
    of a Bible-scale corpus are far below that bound.
    """
    n = len(values)
    b = (n - 1).bit_length()
    if int(values.max(initial=0)).bit_length() + b > _PACK_BITS:
        distinct, inverse = np.unique(values, return_inverse=True)
        return distinct, inverse.astype(np.int32)
    word = values
    word <<= b
    word |= np.arange(n)
    word.sort()
    high = word >> b
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(high[1:], high[:-1], out=first[1:])
    distinct = high[first]
    del high
    rank = np.cumsum(first, dtype=np.int32)
    rank -= 1
    word &= (1 << b) - 1
    inverse = np.empty(n, dtype=np.int32)  # made after the sort, to lower the peak
    inverse[word] = rank
    return distinct, inverse


def _chunk_layouts(src_lens, src_flat, tgt_lens, tgt_flat, n_tgt, src_map=None, tgt_map=None):
    """The slot layout of a corpus, one ``_CHUNK_SENTS``-sentence chunk at a
    time.

    A slot is one (sentence, target token, source position) with position 0
    the NULL source (id 0); its group is its (sentence, target token), so a
    group holds the NULL slot and then one slot per source token, in order.
    A slot's pair key is ``src_id * n_tgt + tgt_id``, or -1 when either id
    is -1 (a word the table does not know). A source token's id is
    ``src_map[id]`` when ``src_map`` is given, else the id in ``src_flat``,
    and likewise for targets; the maps are applied one chunk at a time, so
    no mapped copy of a whole side is made. One ``_unique_inverse`` of a
    chunk's slot keys, shifted by 1 so that -1 sorts as 0, gives the chunk's
    distinct pairs and each slot's index among them. The pair keys must be
    below ``2**63 - 1``; keys past ``_unique_inverse``'s packed bound are
    still laid out, through its ``np.unique`` fallback.

    Yields, per chunk, ``group_ptr`` (group g's slots are
    ``group_ptr[g]:group_ptr[g+1]``), the sorted distinct pair keys and
    ``local``, the int32 index into those keys of each slot. Raises
    ``ValidationError``, before any slot array is made, when a chunk has
    more than 2**31 slots (the int32 limit).
    """
    starts = np.arange(0, len(src_lens), _CHUNK_SENTS)
    most = int(np.add.reduceat(tgt_lens * (src_lens + 1), starts).max(initial=0))
    if most > 1 << 31:
        raise ValidationError(
            f"corpus too large to align: a chunk of {_CHUNK_SENTS} sentences "
            f"has {most} slots (at most 2**31)")
    cuts = starts[1:]
    for s_lens, s_flat, t_lens, t_flat in zip(
            np.split(src_lens, cuts), np.split(src_flat, _offsets(src_lens)[cuts]),
            np.split(tgt_lens, cuts), np.split(tgt_flat, _offsets(tgt_lens)[cuts])):
        if src_map is not None:
            s_flat = src_map[s_flat]
        if tgt_map is not None:
            t_flat = tgt_map[t_flat]
        group_ptr = _offsets(np.repeat(s_lens + 1, t_lens))
        widths = np.diff(group_ptr)
        # A "block" is a sentence's NULL id followed by its source ids; a
        # slot's source id is read from its sentence's block at the slot's
        # offset within its group.
        blocks = np.insert(s_flat, _offsets(s_lens)[:-1], 0)
        at = np.arange(group_ptr[-1])
        at -= np.repeat(group_ptr[:-1] - np.repeat(_offsets(s_lens + 1)[:-1], t_lens), widths)
        e = blocks[at]
        f = np.repeat(t_flat, widths)
        keys = e * n_tgt + f + 1  # shifted by 1: an unknown pair (-1) is 0
        keys[(e < 0) | (f < 0)] = 0
        del at, e, f  # before the sort's scratch is made
        pair_keys, local = _unique_inverse(keys)
        pair_keys -= 1
        yield group_ptr, pair_keys, local


def train_model1(corpus: ParallelCorpus, cfg: AlignerConfig = AlignerConfig()) -> TranslationTable:
    """Train t(target | source) by EM.

    t is initialized uniform over the target types co-occurring with each
    source type. Each iteration distributes every target token's posterior
    over the sentence's source tokens plus NULL, renormalizes per source
    type, and records the corpus log-likelihood under the pre-update table.
    A plain corpus is encoded here; an ``EncodedCorpus`` folded as ``cfg``
    says is used as it is. The table keeps the encoded corpus and its slot
    layout, which ``viterbi_align`` reuses on the same corpus.
    """
    corpus = EncodedCorpus.of(corpus, cfg.case_fold)
    src, tgt = corpus.src, corpus.tgt
    if not corpus:
        raise ValidationError("cannot train on an empty parallel corpus")
    empty = np.flatnonzero((src.lens == 0) | (tgt.lens == 0))
    if len(empty):
        raise ValidationError(f"parallel pair {empty[0]} has an empty side")
    _check_source_types(src.types, cfg.case_fold)

    src_words = [NULL_WORD, *src.types]
    n_src = len(src_words)
    n_tgt = len(tgt.types)

    # a source type's row is its id + 1
    rows = np.arange(1, n_src, dtype=np.int64)
    chunks = list(_chunk_layouts(src.lens, src.flat, tgt.lens, tgt.flat, n_tgt, rows))
    # The table's pairs are the chunks' keys merged: one packed sort of all
    # of them gives the sorted distinct keys and each chunk key's pair id.
    # The chunks' own keys are dropped before the sort's scratch is made.
    cuts = np.cumsum([len(keys) for _, keys, _ in chunks[:-1]])
    merged = np.concatenate([keys for _, keys, _ in chunks])
    chunks = [(group_ptr, local) for group_ptr, _, local in chunks]
    pair_keys, pair_of = _unique_inverse(merged)
    del merged
    chunks = [(group_ptr, pairs, local)
              for (group_ptr, local), pairs in zip(chunks, np.split(pair_of, cuts))]
    row_ptr = np.searchsorted(pair_keys, np.arange(n_src + 1, dtype=np.int64) * n_tgt)
    row_len = np.diff(row_ptr)

    t = 1.0 / np.repeat(row_len, row_len).astype(np.float64)

    log_likelihoods: list[float] = []
    for _ in range(cfg.iterations):
        counts = np.zeros(len(pair_keys))
        ll = 0.0
        for group_ptr, pairs, local in chunks:
            pairs = pairs.astype(np.intp)  # cast once for the gather and the add
            part, part_ll = _DEFAULT_KERNEL.estep_chunk(t[pairs], local, group_ptr)
            np.add.at(counts, pairs, part)  # a chunk's pairs are distinct
            ll += part_ll
        log_likelihoods.append(ll)
        row_sums = np.add.reduceat(counts, row_ptr[:-1])
        counts /= np.repeat(row_sums, row_len)
        t = counts

    return TranslationTable(
        case_fold=cfg.case_fold,
        src_words=src_words,
        tgt_words=list(tgt.types),
        log_likelihoods=log_likelihoods,
        _src_index={word: e for e, word in enumerate(src_words)},
        _tgt_index={word: f for f, word in enumerate(tgt.types)},
        _t=t,
        _keys=pair_keys,
        _trained_on=(corpus, chunks),
    )


def viterbi_align(corpus: ParallelCorpus, table: TranslationTable) -> Alignments:
    """Hard-align each target token to its most probable source token.

    A NULL win leaves the target token unlinked; ties go to the lowest source
    index, and NULL loses ties to any real token. Words or pairs the table
    does not know have probability 0.
    """
    corpus = EncodedCorpus.of(corpus, table.case_fold)
    src, tgt = corpus.src, corpus.tgt
    trained = table._trained_on
    if trained is not None and all(
            x.types == y.types and np.array_equal(x.lens, y.lens) and np.array_equal(x.flat, y.flat)
            for x, y in ((src, trained[0].src), (tgt, trained[0].tgt))):
        # The corpus EM ran on (the same types and ids): its chunks' pairs
        # are the table's.
        chunks = ((group_ptr, table._t[pairs], local)
                  for group_ptr, pairs, local in trained[1])
    else:
        _check_source_types(src.types, table.case_fold)
        src_ids = np.array([table._src_index.get(w, -1) for w in src.types], dtype=np.int64)
        tgt_ids = np.array([table._tgt_index.get(w, -1) for w in tgt.types], dtype=np.int64)
        chunks = ((group_ptr, table._lookup(keys), local)
                  for group_ptr, keys, local in _chunk_layouts(
                      src.lens, src.flat, tgt.lens, tgt.flat, len(table.tgt_words),
                      src_ids, tgt_ids))

    # Segmented argmax over each group's source slots: the NULL slot is
    # masked below every probability, a group links iff its maximum beats or
    # ties NULL, and the first slot at the maximum is the lowest-index best.
    # Groups never cross chunks, so it runs one chunk at a time.
    linked_parts, link_i_parts = [], []
    group_lo = 0
    for group_ptr, pair_t, local in chunks:
        slot_t = pair_t[local]
        starts = group_ptr[:-1]
        p_null = slot_t[starts]
        slot_t[starts] = -1.0
        best_t = np.maximum.reduceat(slot_t, starts)
        linked = np.flatnonzero(best_t >= p_null)
        # each group has one slot at its maximum
        at_best = np.flatnonzero(slot_t == np.repeat(best_t, np.diff(group_ptr)))
        link_start = starts[linked]
        link_i_parts.append(at_best[np.searchsorted(at_best, link_start)] - link_start - 1)
        linked_parts.append(linked + group_lo)
        group_lo += len(starts)
    linked = np.concatenate(linked_parts)
    link_i = np.concatenate(link_i_parts)

    sent_groups = _offsets(tgt.lens)
    sent = np.searchsorted(sent_groups, linked, side="right") - 1
    return Alignments.from_links(src.lens, tgt.lens, sent, link_i, linked - sent_groups[sent])


def swap_corpus(corpus: ParallelCorpus) -> ParallelCorpus:
    """Reverse the direction of a parallel corpus."""
    return [(t, s) for s, t in corpus]
