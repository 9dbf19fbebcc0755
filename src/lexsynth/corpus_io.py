"""Corpus parsing and serialization.

Formats handled:
  * plain monolingual text: one tokenized sentence per line, space-separated;
    blank lines are skipped. ``read_mono`` returns a ``MonoCorpus``, which
    holds each sentence as that line (its tokens joined by single spaces)
    and splits it only when an item is read; ``synth.synth_mono``,
    ``mix.upsample_to_match`` and ``mix.concat_shuffle`` return one too
  * parallel text: two line-aligned monolingual files. ``read_parallel``
    returns a ``ParallelPairs``, whose two sides are ``MonoCorpus`` lines;
    ``lex induce`` encodes those lines (``align.EncodedCorpus``) without
    ever holding a token list per sentence. Both plain-text readers read
    about 2**20 characters at a time, each chunk cut at its last line end;
    a chunk that is already single-spaced (no space at a line's start or
    end, no two spaces side by side, no other whitespace; blank lines
    allowed) is split at its line ends and kept as read; any other is
    re-spaced as a whole before it is split
  * TwoColumn: one ``token<TAB>label`` line per token; extra tab-separated
    columns are kept for round-tripping
  * CoNLL-U: standard 10-column lines; comments, multiword-token range lines
    (ID like ``1-2``) and empty-node lines (ID like ``1.1``) are kept verbatim
    and excluded from the token sequence

In both labeled formats a sentence is a block of lines, and blocks are
separated by blank or whitespace-only lines. A ``LabeledCorpus`` holds a
file as columns: every block's lines once, flat token and label columns,
sentence offsets into them, and the line of each token's word line; its
``sentences`` are ``LabeledSentence`` views, each with its block as
``BlockRows``, built when read. ``read_labeled`` splits each word line
only up to the last field it needs; a block that fails the quick checks
(tab counts, word IDs 1, 2, ...) is checked line by line, and an error
names its line. ``write_labeled`` copies every line and rebuilds only the
word lines whose token or label differs from the value read. A sentence
with no lines kept in the format and schema written (built in code, or
read in the other format) gets default lines: ``token<TAB>label`` for
TwoColumn, and for CoNLL-U the ID, FORM and ``_`` in the other eight
columns before the labels are filled in. A label the format cannot hold
(a tab, CR or LF; an empty TwoColumn label), or TwoColumn sentences whose
lines would differ in column count are a ``ValidationError`` before the
file is opened.

Inputs are UTF-8, opened through ``errors.open_input``: a leading
byte-order mark is dropped, a byte that is not UTF-8 is a
``DataFormatError``, and lines end at LF, CRLF or CR. All outputs are UTF-8
with LF line endings and a trailing newline.
"""

from __future__ import annotations

import copy
import enum
import logging
import numbers
import re
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, compress, repeat
from operator import lt, ne
from pathlib import Path

from .errors import DataFormatError, ValidationError, open_input

logger = logging.getLogger(__name__)

TokenizedSentence = list[str]
TokenizedCorpus = list[TokenizedSentence]
ParallelCorpus = list[tuple[TokenizedSentence, TokenizedSentence]]

# Lines ``write_mono`` and ``write_labeled`` join into one write.
_WRITE_BATCH = 1024
# Characters ``read_mono`` and ``read_parallel`` read at a time.
_READ_CHARS = 2**20
# What ``str.split`` splits at but a space, LF and CR (which text mode has
# turned into LF).
_OTHER_SPACE = ("\t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
                "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


class Schema(enum.Enum):
    NER = "ner"
    POS = "pos"
    DEP = "dep"


class Format(enum.Enum):
    TWO_COL = "two-col"
    CONLLU = "conllu"


@dataclass
class BlockRows:
    """A labeled sentence's block of lines as read, for exact round-trips.

    ``lines`` are the block's lines verbatim, without line ends;
    ``word_lines`` holds the position in ``lines`` of each word line, one
    per token (every other line is a CoNLL-U comment, multiword-token range
    or empty node); ``columns`` are the fields of a word line that hold the
    token and then its labels (see ``_columns``). Every word line has as
    many tab-separated fields.
    """

    format: Format
    columns: tuple[int, ...]
    lines: list[str]
    word_lines: Sequence[int]


_BAD_TOKEN = "bad token {!r}: tokens must be non-empty without whitespace"


@dataclass
class LabeledSentence:
    tokens: list[str]
    schema: Schema
    labels: list[str] | None = None    # one tag per token (NER/POS)
    heads: list[int] | None = None     # DEP: 0 = root
    deprels: list[str] | None = None   # DEP
    passthrough: BlockRows | None = None

    def __post_init__(self):
        n = len(self.tokens)
        if n == 0:
            raise ValidationError("labeled sentence must have at least one token")
        if " ".join(self.tokens).split() != list(self.tokens):
            raise ValidationError(_BAD_TOKEN.format(next(t for t in self.tokens if t.split() != [t])))
        if self.schema in (Schema.NER, Schema.POS):
            if self.labels is None or len(self.labels) != n:
                raise ValidationError(f"{self.schema.value} sentence needs exactly one label per token")
        else:
            if self.heads is None or self.deprels is None:
                raise ValidationError("dep sentence needs heads and deprels")
            if len(self.heads) != n or len(self.deprels) != n:
                raise ValidationError("dep column length must equal token count")
            for i, h in enumerate(self.heads):
                # written as str(h), which reads back only for an int
                if not isinstance(h, numbers.Integral) or isinstance(h, bool):
                    raise ValidationError(f"dep head {h!r} at position {i} is not an integer")
                if not 0 <= h <= n:
                    raise ValidationError(f"dep head {h} out of range [0, {n}]")


class LabeledCorpus(Sequence):
    """A labeled corpus as columns, and the sequence of its sentences.

    ``tokens`` and the label columns (NER/POS ``labels``; DEP ``heads`` and
    ``deprels``) hold sentence k at ``offsets[k]:offsets[k + 1]``. ``lines``
    holds each block then ``""``: sentence k's are ``lines[starts[k]:
    starts[k + 1] - 1]``, none when it has no rows. ``rows`` is their format
    and fields (``_columns``); ``word_lines[i]`` is token i's line, and
    ``read`` the columns the lines hold (``None``: not known). Item k is a
    ``LabeledSentence`` view, built and checked when read.
    ``LabeledCorpus(schema, sentences)`` takes rows of one kind.
    """

    def __init__(self, schema: Schema, sentences=()):
        self.schema = schema
        self.tokens, self.offsets, self.lines, self.starts, self.word_lines = [], [0], [], [0], []
        self.labels, self.heads, self.deprels = (None, [], []) if schema is Schema.DEP else ([], None, None)
        self.rows = self.read = None
        for k, sent in enumerate(sentences):
            if sent.schema is not schema:
                raise ValidationError(f"sentence {k} is {sent.schema.value} in a {schema.value} corpus")
            rows, n = sent.passthrough, len(sent.tokens)
            kind = rows and (rows.format, tuple(rows.columns))
            if rows is None:
                self.word_lines += [len(self.lines)] * n
            elif self.rows not in (None, kind):
                raise ValidationError(f"sentence {k}'s rows hold other fields than the first sentence's")
            elif len(rows.word_lines) != n:
                raise ValidationError(f"sentence {k}: {n} tokens but {len(rows.word_lines)} word rows")
            else:
                self.rows = kind
                self.word_lines += [len(self.lines) + p for p in rows.word_lines]
                self.lines += [*rows.lines, ""]
            for name in self._names():
                getattr(self, name).extend(getattr(sent, name))
            self.offsets.append(len(self.tokens))
            self.starts.append(len(self.lines))

    def _names(self) -> tuple[str, ...]:
        """The token column's name, then the label columns' in word-line order."""
        return ("tokens", "heads", "deprels") if self.schema is Schema.DEP else ("tokens", "labels")

    def _values(self) -> list[list]:
        return [getattr(self, name) for name in self._names()]

    def token_rows(self) -> list[list[str]]:
        """Each sentence's slice of the token column."""
        return [self.tokens[a:b] for a, b in zip(self.offsets, self.offsets[1:])]

    def _replace(self, **columns) -> LabeledCorpus:
        """A copy sharing every list but the columns given."""
        out = copy.copy(self)
        vars(out).update(columns)
        return out

    def __add__(self, other: LabeledCorpus) -> LabeledCorpus:
        """This corpus's sentences, then ``other``'s."""
        if self.rows and other.rows and self.rows != other.rows:
            raise ValidationError("the corpora's rows hold other fields")
        lines, tokens = len(self.lines), len(self.tokens)
        return self._replace(
            **{name: getattr(self, name) + getattr(other, name) for name in self._names()},
            offsets=self.offsets + [o + tokens for o in other.offsets[1:]],
            lines=self.lines + other.lines,
            starts=self.starts + [s + lines for s in other.starts[1:]],
            word_lines=self.word_lines + [w + lines for w in other.word_lines],
            rows=self.rows or other.rows,
            read=self.read and other.read and list(map(list.__add__, self.read, other.read)),
        )

    @property
    def sentences(self) -> LabeledCorpus:
        return self

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]
        at, first, end = slice(self.offsets[k], self.offsets[k + 1]), self.starts[k], self.starts[k + 1]
        rows = None if end == first else BlockRows(*self.rows, self.lines[first:end - 1],
                                                   [w - first for w in self.word_lines[at]])
        return LabeledSentence(self.tokens[at], self.schema, passthrough=rows,
                               **{name: getattr(self, name)[at] for name in self._names()[1:]})

    def __eq__(self, other) -> bool:
        if isinstance(other, LabeledCorpus) and self.schema is not other.schema:
            return False
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


class MonoCorpus(Sequence):
    """A plain-text corpus held as one string per sentence.

    Item k is sentence k's token list, split from ``lines[k]`` each time it
    is read; a slice is a ``MonoCorpus``. ``lines`` holds each sentence's
    tokens joined by single spaces, the line ``write_mono`` writes; the
    constructor takes such lines as they are. Build one from token lists
    with ``of``, which checks that every token survives its line.
    """

    def __init__(self, lines: list[str] | None = None):
        self.lines = [] if lines is None else lines

    @classmethod
    def of(cls, corpus) -> MonoCorpus:
        """``corpus`` itself if it is a ``MonoCorpus``, else its token lists
        joined into lines.

        A token that is empty or holds whitespace would be split differently
        when its line is read, so it is a ``ValidationError`` naming the
        sentence and the token.
        """
        if isinstance(corpus, cls):
            return corpus
        lines = []
        for k, tokens in enumerate(corpus):
            line = " ".join(tokens)
            if line.split() != tokens:
                for i, token in enumerate(tokens):
                    if token.split() != [token]:
                        raise ValidationError(
                            f"sentence {k}, token {i}: {token!r} is empty or holds "
                            "whitespace, so it cannot be held as one token of a line"
                        )
            lines.append(line)
        return cls(lines)

    def _append_rows(self, rows) -> None:
        """Append rows whose items are known to be non-empty tokens joined
        by single spaces, without the check ``of`` makes."""
        self.lines.extend(map(" ".join, rows))

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return MonoCorpus(self.lines[k])
        return self.lines[k].split()

    def __iter__(self):
        return map(str.split, self.lines)

    def __eq__(self, other) -> bool:
        if isinstance(other, MonoCorpus):
            return self.lines == other.lines
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"MonoCorpus({self.lines!r})"


def _single_spaced(text: str) -> bool:
    """True when every line of ``text`` (lines end at LF; no whitespace but
    spaces and LFs) is blank or its tokens joined by single spaces: no line
    starts or ends with a space, and no two spaces are adjacent."""
    if text[:1] == " " or text[-1:] == " ":
        return False
    # Two spaces side by side here are two spaces, a space and an LF, or a
    # blank line's two LFs; only the last is single-spaced.
    spaced = text.replace("\n", " ")
    at = spaced.find("  ")
    while at >= 0:
        if text[at] != "\n" or text[at + 1] != "\n":
            return False
        at = spaced.find("  ", at + 1)
    return True


def _lines(text: str) -> list[str]:
    """The lines of ``text`` (lines end at LF), each with its tokens joined
    by single spaces ("" for a blank line); kept as read when ``text`` is
    single-spaced already.

    Other whitespace becomes spaces, and the spaces are then collapsed and
    stripped for the whole text at once, not line by line.
    """
    for c in _OTHER_SPACE:
        if c in text:
            text = text.replace(c, " ")
    if not _single_spaced(text):
        while "  " in text:
            text = text.replace("  ", " ")
        text = text.replace(" \n", "\n").replace("\n ", "\n").strip(" ")
    return text.split("\n")


def _chunks(fh):
    """The lines of text file ``fh`` as ``_lines`` gives them, one list for
    about ``_READ_CHARS`` characters at a time.

    A chunk ends at its last LF, and the rest is carried over to the next.
    """
    tail = ""
    while text := fh.read(_READ_CHARS):
        cut = text.rfind("\n")
        if cut < 0:  # a line longer than a chunk
            tail += text
            continue
        text, tail = tail + text[:cut], text[cut + 1:]
        yield _lines(text)
    if tail:
        yield _lines(tail)


def read_mono(path, limit: int | None = None) -> MonoCorpus:
    """Read one tokenized sentence per line; blank lines are skipped.

    ``limit`` keeps only the first N sentences (0 keeps none); no chunk of
    text past the one holding line N is read, but the file is opened
    whatever the limit, so a missing file is an error. A byte that is not
    UTF-8 inside text already read is an error even past the limit, as the
    text layer decodes ahead of the lines returned. Each kept line is held
    with its tokens joined by single spaces.
    """
    if limit is not None and limit < 0:
        raise ValidationError(f"limit must be >= 0, got {limit}")
    lines: list[str] = []
    with open_input(path) as fh:
        if limit != 0:
            for chunk in _chunks(fh):
                lines += filter(None, chunk)
                if limit is not None and len(lines) >= limit:
                    del lines[limit:]
                    break
    return MonoCorpus(lines)


def write_mono(corpus: MonoCorpus | TokenizedCorpus, path) -> None:
    """Write one sentence per line, tokens joined by single spaces.

    A list of token lists goes through ``MonoCorpus.of``, so a token that
    is empty or holds whitespace is a ``ValidationError``.
    """
    lines = MonoCorpus.of(corpus).lines
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for lo in range(0, len(lines), _WRITE_BATCH):
            fh.write("\n".join(lines[lo:lo + _WRITE_BATCH]) + "\n")


class ParallelPairs(Sequence):
    """A parallel corpus held as two ``MonoCorpus`` sides, ``src`` and
    ``tgt``, with as many lines each.

    Item k is ``(src[k], tgt[k])``, each side's token list split from its
    line when read; a slice is a ``ParallelPairs``. Build one from
    ``(source tokens, target tokens)`` pairs with ``of``. ``dropped`` holds
    the 0-based input line numbers of the pairs ``read_parallel`` skipped.
    """

    def __init__(self, src: MonoCorpus, tgt: MonoCorpus, dropped: tuple[int, ...] = ()):
        if len(src) != len(tgt):
            raise ValidationError(f"parallel sides differ in length: {len(src)} and {len(tgt)}")
        self.src, self.tgt, self.dropped = src, tgt, dropped

    @classmethod
    def of(cls, corpus) -> ParallelPairs:
        """``corpus`` itself if it is a ``ParallelPairs``, else its sides
        joined into lines by ``MonoCorpus.of``, which rejects a token that
        is empty or holds whitespace."""
        if isinstance(corpus, cls):
            return corpus
        return cls(MonoCorpus.of([s for s, _ in corpus]), MonoCorpus.of([t for _, t in corpus]))

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return ParallelPairs(self.src[k], self.tgt[k])
        return self.src[k], self.tgt[k]

    def __iter__(self):
        return zip(self.src, self.tgt)

    def __eq__(self, other) -> bool:
        if isinstance(other, ParallelPairs):
            return self.src == other.src and self.tgt == other.tgt
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"ParallelPairs({self.src!r}, {self.tgt!r})"


def read_parallel(src_path, tgt_path) -> ParallelPairs:
    """Pair line i of the source file with line i of the target file.

    Line counts must match exactly; pairs where either side is blank are
    dropped with a counted warning, and their line numbers are kept in the
    result's ``dropped``. Lines are split as ``read_mono`` splits them, at
    ``\n``, ``\r\n`` or ``\r`` only: a U+2028 or form feed inside a line
    does not end it. Each kept line is held as ``read_mono`` holds it, with
    its tokens joined by single spaces.
    """
    sides = []
    for path in (src_path, tgt_path):
        with open_input(path) as fh:
            sides.append(list(chain.from_iterable(_chunks(fh))))
    src, tgt = sides
    if len(src) != len(tgt):
        raise ValidationError(
            f"parallel line count mismatch: {src_path} has {len(src)} lines, "
            f"{tgt_path} has {len(tgt)} lines"
        )
    dropped = ()
    if "" in src or "" in tgt:
        keep = list(map(all, zip(src, tgt)))
        dropped = tuple(n for n, kept in enumerate(keep) if not kept)
        src, tgt = list(compress(src, keep)), list(compress(tgt, keep))
        logger.warning("dropped %d parallel pair(s) with a blank side", len(dropped))
    return ParallelPairs(MonoCorpus(src), MonoCorpus(tgt), dropped)


def write_parallel(corpus: ParallelPairs | ParallelCorpus, src_path, tgt_path) -> None:
    """Write each side as ``write_mono`` writes it. A list of pairs goes
    through ``ParallelPairs.of``, so both sides are checked before either
    file is written."""
    pairs = ParallelPairs.of(corpus)
    write_mono(pairs.src, src_path)
    write_mono(pairs.tgt, tgt_path)


def _columns(format: Format, schema: Schema, token_col: int = 0, label_col: int = 1) -> tuple[int, ...]:
    """The fields of a word line that hold the token and then its labels.

    TwoColumn keeps them in ``token_col`` and ``label_col``, which must be
    different and non-negative, since the writer puts the token and the
    label back into them. CoNLL-U keeps FORM and UPOS for POS, and FORM,
    HEAD and DEPREL for DEP.
    """
    if format is Format.TWO_COL:
        if schema is Schema.DEP:
            raise ValidationError("two-col carries no head/deprel columns; use conllu for dep")
        if token_col < 0 or label_col < 0 or token_col == label_col:
            raise ValidationError(f"token_col {token_col} and label_col {label_col} must differ and be >= 0")
        return (token_col, label_col)
    if schema is Schema.NER:
        raise ValidationError("conllu carries no ner column; use two-col for ner")
    return (1, 3) if schema is Schema.POS else (1, 6, 7)


# A HEAD as the writer spells it, so that it reads back as the same bytes.
# int() would also take a sign, spaces, underscores, non-ASCII digits and
# leading zeros, which are written back as another spelling.
_HEAD = re.compile("0|[1-9][0-9]*")


_CONLLU_NCOLS = 10
# What ``str.split`` splits at: a token holds none of it.
_SPACE = re.compile(r"\s")
# The word IDs of a block holding no other lines but comments.
_IDS = [str(i) for i in range(1, 1025)]


def read_labeled(
    path,
    schema: Schema,
    format: Format = Format.TWO_COL,
    token_col: int = 0,
    label_col: int = 1,
) -> LabeledCorpus:
    """Parse a labeled corpus in TwoColumn or CoNLL-U format.

    ``token_col`` and ``label_col`` pick the TwoColumn fields; they must be
    different and non-negative. A DEP HEAD must be ``0`` or ASCII digits
    without a leading zero, as the writer spells it; anything else is a
    ``DataFormatError`` naming the line. The corpus keeps every block's
    lines, so writing it back in the same format gives the same bytes.
    """
    columns = _columns(format, schema, token_col, label_col)
    cut = max(columns) + 1  # a TwoColumn line's fewest fields
    with open_input(path) as fh:
        lines = fh.read().split("\n")
    # Blocks are separated by blank or whitespace-only lines; lines[i] is
    # line i + 1 of the file, as text mode has turned CRLF and CR into LF.
    blanks = [i for i, line in enumerate(lines) if not line.strip()] + [len(lines)]
    blocks = [(a + 1, b) for a, b in zip([-1, *blanks], blanks) if b > a + 1]
    if format is Format.CONLLU:
        check = partial(_conllu_block, cut=cut)
    else:  # every line has as many fields as the file's first
        ncols = lines[blocks[0][0]].count("\t") + 1 if blocks else cut
        if ncols < cut:
            raise DataFormatError(f"need at least {cut} tab-separated columns, got {ncols}",
                                  path=path, line=blocks[0][0] + 1)
        check = partial(_two_col_block, columns=columns, ncols=ncols)
    corpus = LabeledCorpus(schema)
    store, starts, word_lines = corpus.lines, corpus.starts, corpus.word_lines
    values, shared = [[] for _ in columns], {}  # each repeated token or label is kept once
    for a, b in blocks:
        block = lines[a:b]
        at, fields = check(path, a + 1, block, len(store))
        for column, col in zip(values, columns):
            got = [f[col] for f in fields]
            column += map(shared.setdefault, got, got)
        word_lines += at
        store += block
        store.append("")
        starts.append(len(store))
        corpus.offsets.append(len(word_lines))

    def fail(message: str, i: int):  # at word i's line
        k = bisect_right(corpus.offsets, i) - 1
        raise DataFormatError(message, path=path, line=blocks[k][0] + 1 + word_lines[i] - starts[k])

    if schema is Schema.DEP:
        if not all(map(_HEAD.fullmatch, values[1])):
            i = next(i for i, head in enumerate(values[1]) if not _HEAD.fullmatch(head))
            fail(f"non-integer HEAD {values[1][i]!r}", i)
        values[1] = heads = list(map(int, values[1]))
        for a, b in zip(corpus.offsets, corpus.offsets[1:]):
            if max(heads[a:b]) > b - a:
                fail(f"dep head {next(h for h in heads[a:b] if h > b - a)} out of range [0, {b - a}]", a)
    if "" in values[0] or _SPACE.search("".join(values[0])):
        i = next(i for i, t in enumerate(values[0]) if t.split() != [t])
        fail(_BAD_TOKEN.format(values[0][i]), i)
    vars(corpus).update(zip(corpus._names(), values), rows=(format, columns) if store else None,
                        read=values)
    return corpus


def _two_col_block(path, first, block, base, columns: tuple[int, ...], ncols: int):
    """The lines of a TwoColumn block (all word lines), numbered from
    ``base``, and each one's fields, split up to the last of ``columns``:
    ``ncols`` fields, the token and label not empty (the block starts at
    line ``first``)."""
    fields = [line.split("\t", max(columns) + 1) for line in block]
    if list(map(str.count, block, repeat("\t"))) != [ncols - 1] * len(block) or not all(
            f[col] for f in fields for col in columns):
        for p, line in enumerate(block):
            got = line.count("\t") + 1
            if got != ncols:
                raise DataFormatError(f"inconsistent column count: expected {ncols}, got {got}",
                                      path=path, line=first + p)
            if not all(fields[p][col] for col in columns):
                raise DataFormatError("empty token or label field", path=path, line=first + p)
    return range(base, base + len(block)), fields


def _is_word_id(id_field: str) -> bool:
    """True for ASCII digits without a leading zero (``1``, ``12``)."""
    return id_field.isdigit() and id_field.isascii() and id_field[0] != "0"


def _is_range_or_empty_id(id_field: str) -> bool:
    """True for a multiword-token range ``N-M`` or an empty node ``N.M``:
    N and M are word IDs, N below M in a range, except that an empty node's
    N may be ``0``."""
    start, dash, end = id_field.partition("-")
    if dash:
        return _is_word_id(start) and _is_word_id(end) and int(start) < int(end)
    start, dot, end = id_field.partition(".")
    return bool(dot) and (start == "0" or _is_word_id(start)) and _is_word_id(end)


def _conllu_block(path, first, block, base, cut: int):
    """The word lines of a CoNLL-U block, numbered from ``base``, and each
    one's fields, split up to field ``cut``; an error names its line (the
    block starts at line ``first``).

    Every line but comments, multiword-token ranges and empty nodes is a
    10-column word line, and a block holds at least one. IDs are in order,
    as DEP heads are word positions: word k's ID is k, a range ``N-M`` comes
    just before word N and ends at or before the last word, and an empty
    node ``N.M`` comes after word N and before word N + 1. Leading comments
    then word IDs 1, 2, ... pass at once; other IDs are checked one by one.
    """
    c = 0
    while c < len(block) and block[c][0] == "#":
        c += 1
    at, tabs = range(c, len(block)), list(map(str.count, block[c:], repeat("\t")))
    regular = tabs == [_CONLLU_NCOLS - 1] * len(tabs)
    if not regular:  # a comment among the word lines, or a line of other than 10 fields
        at, tabs = range(len(block)), list(map(str.count, block, repeat("\t")))
    fields = [block[p].split("\t", cut) for p in at]
    ids = [f[0] for f in fields]
    if regular and ids and ids == _IDS[:len(ids)]:
        return range(base + c, base + len(block)), fields
    words: list[int] = []
    ranges: list[tuple[int, str, int]] = []  # (position, ID, last word ID)
    next_id = "1"
    for p, id_field, n in zip(at, ids, tabs):
        if block[p][0] == "#":
            continue
        if n != _CONLLU_NCOLS - 1:
            raise DataFormatError(f"expected {_CONLLU_NCOLS} columns, got {n + 1}", path=path, line=first + p)
        if id_field == next_id:
            words.append(p)
            next_id = str(len(words) + 1)
            continue
        if not (_is_word_id(id_field) or _is_range_or_empty_id(id_field)):
            raise DataFormatError(f"bad ID field {id_field!r}", path=path, line=first + p)
        # a word ID or a range starts at the next word's ID, an empty
        # node at the last word's
        start, dash, end = id_field.partition("-")
        node, dot, _ = id_field.partition(".")
        if (node != str(len(words))) if dot else (start != next_id):
            raise DataFormatError(f"ID {id_field!r} out of order: the next word ID is {next_id}",
                                  path=path, line=first + p)
        if dash:
            ranges.append((p, id_field, int(end)))
    if not words:
        raise DataFormatError("sentence block has no word lines", path=path, line=first)
    for p, id_field, end in ranges:
        if end > len(words):
            raise DataFormatError(f"range {id_field!r} ends past the last word ID {len(words)}",
                                  path=path, line=first + p)
    return [base + p for p in words], [fields[p - at.start] for p in words]


def _unwritable(labels, two_col: bool) -> bool:
    """True when a label holds a tab, CR or LF, which end a field or a line,
    or is empty in TwoColumn."""
    text = "".join(labels)
    return "\t" in text or "\r" in text or "\n" in text or (two_col and "" in labels)


def write_labeled(corpus: LabeledCorpus, path, format: Format = Format.TWO_COL) -> None:
    """Serialize a labeled corpus, keeping the lines it was read with.

    Every line is copied, and the word lines whose token or label differs
    from the value read are rebuilt; a sentence without lines read in this
    format and schema gets default lines, all filled in. Before the file is
    opened, a ``ValidationError`` names the first label (DEP: deprel) that
    holds a tab, CR or LF, or is empty in TwoColumn, and the first sentence
    whose TwoColumn lines would have another column count than the first
    sentence's: such a file would read back differently, or not at all.
    """
    columns = _columns(format, corpus.schema)
    two_col = format is Format.TWO_COL
    labels = corpus._values()[-1]
    if _unwritable(labels, two_col):
        i = next(i for i, label in enumerate(labels) if _unwritable([label], two_col))
        k = bisect_right(corpus.offsets, i) - 1
        raise ValidationError(f"sentence {k}, token {i - corpus.offsets[k]}: "
                              f"{format.value} cannot hold the label {labels[i]!r}")
    rows = corpus.rows
    fits = rows is not None and rows[0] is format and len(rows[1]) == len(columns)
    cols = rows[1] if fits else columns
    if not (fits and all(map(lt, corpus.starts, corpus.starts[1:]))):  # give default lines
        corpus = LabeledCorpus(corpus.schema, [sent if fits and sent.passthrough else replace(
            sent, passthrough=BlockRows(format, cols, ["\t"] * len(sent.tokens) if two_col else [
                str(i) + "\t_" * 9 for i in range(1, len(sent.tokens) + 1)], range(len(sent.tokens))))
            for sent in corpus])
    lines = corpus.lines
    if two_col:
        widths = [lines[s].count("\t") + 1 for s in corpus.starts[:-1]]
        k = next((k for k, width in enumerate(widths) if width != widths[0]), None)
        if k is not None:
            raise ValidationError(f"sentence {k} has {widths[k]} two-col columns but sentence 0 has "
                                  f"{widths[0]}; one file holds one column count")
    # Only the columns, and the lines, that differ from those read.
    fill = [(col, column, read) for col, column, read
            in zip(cols, corpus._values(), corpus.read or [None] * len(cols)) if column != read]
    changed = range(len(corpus.tokens)) if corpus.read is None else list(compress(
        range(len(corpus.tokens)), map(any, zip(*[map(ne, column, read) for _, column, read in fill]))))
    fill = [(col, list(map(str, column)) if column is corpus.heads else column) for col, column, _ in fill]
    at = [corpus.word_lines[t] for t in changed]
    cut = max([col for col, _ in fill], default=0) + 1
    # TwoColumn puts a blank line between blocks; CoNLL-U ends each with one.
    end = len(lines) - two_col
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        i = 0
        for lo in range(0, end, _WRITE_BATCH):
            batch = lines[lo:min(lo + _WRITE_BATCH, end)]
            j = bisect_left(at, lo + len(batch), i)
            rows = [lines[p].split("\t", cut) for p in at[i:j]]
            for col, column in fill:
                for fields, t in zip(rows, changed[i:j]):
                    fields[col] = column[t]
            for p, fields in zip(at[i:j], rows):
                batch[p - lo] = "\t".join(fields)
            i = j
            fh.write("\n".join(batch) + "\n")


def sniff_format(path) -> Format:
    """Guess TwoColumn vs CoNLL-U from the first non-blank lines.

    A ``#`` line without a tab is a CoNLL-U comment. Any other line,
    including a ``#`` line with a tab (a TwoColumn ``#<TAB>SYM`` row), means
    CoNLL-U when it has 10 tab-separated columns. When none of the first 20
    such lines decides, the file is TwoColumn.

    The file is read again once its format is known, so a pipe, which
    cannot be, raises ``DataFormatError`` before any line is read.
    """
    with open_input(path) as fh:
        if not fh.seekable():
            raise DataFormatError("cannot guess the format of a pipe, which can be read only "
                                  "once; name it with --format conllu or --format two-col",
                                  path=path)
        seen = 0
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#") and "\t" not in line:
                return Format.CONLLU
            if len(line.split("\t")) == _CONLLU_NCOLS:
                return Format.CONLLU
            seen += 1
            if seen >= 20:
                break
    return Format.TWO_COL
