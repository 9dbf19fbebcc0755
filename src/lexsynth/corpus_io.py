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
    ever holding a token list per sentence
  * TwoColumn: one ``token<TAB>label`` line per token; extra tab-separated
    columns are kept for round-tripping
  * CoNLL-U: standard 10-column lines; comments, multiword-token range lines
    (ID like ``1-2``) and empty-node lines (ID like ``1.1``) are kept verbatim
    and excluded from the token sequence

In both labeled formats a sentence is a block of lines, and blocks are
separated by blank or whitespace-only lines; ``_blocks`` is the one reader
of that layout. Each sentence read keeps its block as one ``BlockRows``: the
lines verbatim, the position of each word line among them, the format, and
the fields that hold the token and its labels (``_columns`` names them).
The readers split each word line at tabs to check it and to take the token
and labels; the split fields are not kept. ``write_labeled`` splits the
word lines again to fill in a sentence's tokens and labels, and copies
every other line unchanged; a sentence with no lines kept in the format
and schema written (built in code, or read in the other format) gets
default lines: ``token<TAB>label`` for TwoColumn, and for CoNLL-U the ID,
FORM and ``_`` in the other eight columns before the labels are filled in.
A sentence whose tokens and kept word lines differ in number, a label the
format cannot hold (a tab, CR or LF; an empty TwoColumn label), or
TwoColumn sentences whose lines would differ in column count are a
``ValidationError`` before the file is opened.

Inputs are UTF-8, opened through ``errors.open_input``: a leading
byte-order mark is dropped, a byte that is not UTF-8 is a
``DataFormatError``, and lines end at LF, CRLF or CR. All outputs are UTF-8
with LF line endings and a trailing newline.
"""

from __future__ import annotations

import enum
import logging
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataFormatError, ValidationError, open_input

logger = logging.getLogger(__name__)

TokenizedSentence = list[str]
TokenizedCorpus = list[TokenizedSentence]
ParallelCorpus = list[tuple[TokenizedSentence, TokenizedSentence]]

# Lines ``write_mono`` and blocks ``write_labeled`` join into one write.
_WRITE_BATCH = 1024


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

    def _text(self, values) -> str:
        """The block's lines, each ending in LF: each word line with
        ``values[j]`` in field ``columns[j]``, every other line as it is.
        ``lines`` itself is not changed. Word lines are split only up to the
        last field filled; the rest of each is put back as one piece."""
        lines = self.lines.copy()
        cut = max(self.columns) + 1
        fields = list(zip(*[lines[p].split("\t", cut) for p in self.word_lines]))
        for col, column in zip(self.columns, values):
            fields[col] = column
        for p, line in zip(self.word_lines, map("\t".join, zip(*fields))):
            lines[p] = line
        lines.append("")
        return "\n".join(lines)


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
        for t in self.tokens:
            if t.split() != [t]:
                raise ValidationError(f"bad token {t!r}: tokens must be non-empty without whitespace")
        if self.schema in (Schema.NER, Schema.POS):
            if self.labels is None or len(self.labels) != n:
                raise ValidationError(f"{self.schema.value} sentence needs exactly one label per token")
        else:
            if self.heads is None or self.deprels is None:
                raise ValidationError("dep sentence needs heads and deprels")
            if len(self.heads) != n or len(self.deprels) != n:
                raise ValidationError("dep column length must equal token count")
            for h in self.heads:
                if not 0 <= h <= n:
                    raise ValidationError(f"dep head {h} out of range [0, {n}]")


@dataclass
class LabeledCorpus:
    schema: Schema
    sentences: list[LabeledSentence] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sentences)


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


def read_mono(path, limit: int | None = None) -> MonoCorpus:
    """Read one tokenized sentence per line; blank lines are skipped.

    ``limit`` keeps only the first N sentences (0 keeps none); no line past
    the limit is read, but the file is opened whatever the limit, so a
    missing file is an error. Each kept line is held with its tokens joined
    by single spaces.
    """
    if limit is not None and limit < 0:
        raise ValidationError(f"limit must be >= 0, got {limit}")
    lines: list[str] = []
    with open_input(path) as fh:
        if limit != 0:
            for line in fh:
                line = " ".join(line.split())
                if not line:
                    continue
                lines.append(line)
                if limit is not None and len(lines) >= limit:
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
    with open_input(src_path) as fh:
        src_lines = list(fh)
    with open_input(tgt_path) as fh:
        tgt_lines = list(fh)
    if len(src_lines) != len(tgt_lines):
        raise ValidationError(
            f"parallel line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)} lines"
        )
    src, tgt, dropped = [], [], []
    for n, (s, t) in enumerate(zip(src_lines, tgt_lines)):
        s, t = " ".join(s.split()), " ".join(t.split())
        if not s or not t:
            dropped.append(n)
            continue
        src.append(s)
        tgt.append(t)
    if dropped:
        logger.warning("dropped %d parallel pair(s) with a blank side", len(dropped))
    return ParallelPairs(MonoCorpus(src), MonoCorpus(tgt), tuple(dropped))


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
    ``DataFormatError`` naming the line. Each sentence keeps its block's
    lines as ``BlockRows``, so writing it back in the same format gives the
    same bytes.
    """
    columns = _columns(format, schema, token_col, label_col)
    token_col, *label_cols = columns
    read_rows = _two_col_rows if format is Format.TWO_COL else _conllu_rows
    sentences: list[LabeledSentence] = []
    for first, rows, words in read_rows(path, columns):
        if schema is Schema.DEP:
            head_col, deprel_col = label_cols
            heads: list[int] = []
            for fields in words:
                head = fields[head_col]
                if not _HEAD.fullmatch(head):
                    raise DataFormatError(
                        f"non-integer HEAD {head!r}",
                        path=path, line=first + rows.word_lines[len(heads)],
                    )
                heads.append(int(head))
            labels = {"heads": heads, "deprels": [fields[deprel_col] for fields in words]}
        else:
            labels = {"labels": [fields[label_cols[0]] for fields in words]}
        tokens = [fields[token_col] for fields in words]
        try:
            sentences.append(LabeledSentence(tokens, schema, passthrough=rows, **labels))
        except ValidationError as exc:
            bad = next((i for i, t in enumerate(tokens) if t.split() != [t]), 0)
            raise DataFormatError(str(exc), path=path, line=first + rows.word_lines[bad]) from exc
    return LabeledCorpus(schema, sentences)


def _blocks(path):
    """Yield each sentence block of a labeled file as (first line number, lines).

    Blocks are separated by blank or whitespace-only lines, so the line at
    position p of a block is line ``first + p`` of the file. Text mode has
    already turned CRLF and CR line ends into LF.
    """
    lines: list[str] = []
    with open_input(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.strip():
                lines.append(line)
            elif lines:
                yield lineno - len(lines), lines
                lines = []
    if lines:
        yield lineno + 1 - len(lines), lines


def _two_col_rows(path, columns: tuple[int, ...]):
    """Yield (first line number, rows, fields) for each TwoColumn block,
    ``fields`` holding each word line split at tabs.

    Every line is a word line, every line of the file has as many fields as
    the first, and the token and label fields are not empty.
    """
    token_col, label_col = columns
    need = max(columns) + 1
    ncols: int | None = None
    for first, lines in _blocks(path):
        words: list[list[str]] = []
        for line in lines:
            fields = line.split("\t")
            if ncols is None:
                ncols = len(fields)
                if ncols < need:
                    raise DataFormatError(
                        f"need at least {need} tab-separated columns, got {ncols}",
                        path=path, line=first,
                    )
            if len(fields) != ncols:
                raise DataFormatError(
                    f"inconsistent column count: expected {ncols}, got {len(fields)}",
                    path=path, line=first + len(words),
                )
            if not fields[token_col] or not fields[label_col]:
                raise DataFormatError("empty token or label field", path=path, line=first + len(words))
            words.append(fields)
        yield first, BlockRows(Format.TWO_COL, columns, lines, range(len(lines))), words


_CONLLU_NCOLS = 10


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


def _conllu_rows(path, columns: tuple[int, ...]):
    """Yield (first line number, rows, fields) for each CoNLL-U block,
    ``fields`` holding each word line split at tabs.

    Comments, multiword-token ranges and empty nodes are kept verbatim;
    every other line must be a 10-column word line with a word ID, and a
    block must hold at least one. IDs are in order, since DEP heads are
    read as word positions: word k's ID is k, a range ``N-M`` comes after
    word N - 1 and before word N and ends at or before the block's last
    word, and an empty node ``N.M`` comes after word N and before word
    N + 1 (``0.M`` before word 1).
    """
    for first, lines in _blocks(path):
        words: list[list[str]] = []
        word_lines: list[int] = []
        next_id = "1"
        ranges: list[tuple[int, str, int]] = []  # (position, ID, last word ID)
        for p, line in enumerate(lines):
            if line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != _CONLLU_NCOLS:
                raise DataFormatError(
                    f"expected {_CONLLU_NCOLS} columns, got {len(fields)}",
                    path=path, line=first + p,
                )
            id_field = fields[0]
            if id_field == next_id:
                words.append(fields)
                word_lines.append(p)
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
                raise DataFormatError(
                    f"range {id_field!r} ends past the last word ID {len(words)}",
                    path=path, line=first + p,
                )
        yield first, BlockRows(Format.CONLLU, columns, lines, word_lines), words


def _unwritable(labels, two_col: bool) -> bool:
    """True when a label holds a tab, CR or LF, which end a field or a line,
    or is empty in TwoColumn."""
    text = "".join(labels)
    return "\t" in text or "\r" in text or "\n" in text or (two_col and "" in labels)


def write_labeled(corpus: LabeledCorpus, path, format: Format = Format.TWO_COL) -> None:
    """Serialize a labeled corpus, keeping the rows each sentence was read with.

    A sentence whose ``BlockRows`` were read in this format and schema gets
    its tokens and labels filled into copies of its word lines, with every
    other line as it was; any other sentence gets default lines. Before the
    file is opened, a ``ValidationError`` names the first sentence whose
    kept word lines differ in number from its tokens, whose label (DEP:
    deprel) holds a tab, CR or LF, or is empty in TwoColumn, or whose
    TwoColumn lines would have another column count than the first
    sentence's: such a file would read back differently, or not at all.
    """
    columns = _columns(format, corpus.schema)
    dep = corpus.schema is Schema.DEP
    two_col = format is Format.TWO_COL
    kept = []
    for k, sent in enumerate(corpus.sentences):
        rows = sent.passthrough
        if rows is None or rows.format is not format or len(rows.columns) != len(columns):
            rows = None
        elif len(rows.word_lines) != len(sent.tokens):
            raise ValidationError(f"sentence {k}: {len(sent.tokens)} tokens but {len(rows.word_lines)} word rows")
        labels = sent.deprels if dep else sent.labels
        if _unwritable(labels, two_col):
            i = next(i for i, label in enumerate(labels) if _unwritable([label], two_col))
            raise ValidationError(f"sentence {k}, token {i}: {format.value} cannot hold the label {labels[i]!r}")
        kept.append(rows)
    if two_col:
        widths = [rows.lines[0].count("\t") + 1 if rows else 2 for rows in kept]
        k = next((k for k, width in enumerate(widths) if width != widths[0]), None)
        if k is not None:
            raise ValidationError(f"sentence {k} has {widths[k]} two-col columns but sentence 0 has "
                                  f"{widths[0]}; one file holds one column count")
    # TwoColumn puts a blank line between blocks; CoNLL-U ends each with one.
    lead, end = ("\n", "") if two_col else ("", "\n")
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for lo in range(0, len(kept), _WRITE_BATCH):
            texts = []
            for sent, rows in zip(corpus.sentences[lo:lo + _WRITE_BATCH], kept[lo:lo + _WRITE_BATCH]):
                if rows is None:  # token<TAB>label, or a CoNLL-U ID and _ in the other fields
                    n = len(sent.tokens)
                    lines = ["\t"] * n if two_col else [str(i) + "\t_" * 9 for i in range(1, n + 1)]
                    rows = BlockRows(format, columns, lines, range(n))
                if dep:
                    values = (sent.tokens, map(str, sent.heads), sent.deprels)
                else:
                    values = (sent.tokens, sent.labels)
                texts.append(rows._text(values))
            fh.write((lead if lo else "") + "\n".join(texts) + end)


def sniff_format(path) -> Format:
    """Guess TwoColumn vs CoNLL-U from the first non-blank lines.

    A ``#`` line without a tab is a CoNLL-U comment. Any other line,
    including a ``#`` line with a tab (a TwoColumn ``#<TAB>SYM`` row), means
    CoNLL-U when it has 10 tab-separated columns. When none of the first 20
    such lines decides, the file is TwoColumn.
    """
    with open_input(path) as fh:
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
