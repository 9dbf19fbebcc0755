"""Corpus parsing and serialization.

Formats handled:
  * plain monolingual text: one tokenized sentence per line, space-separated;
    blank lines are skipped
  * parallel text: two line-aligned monolingual files
  * TwoColumn: one ``token<TAB>label`` line per token; extra tab-separated
    columns are kept as passthrough rows for round-tripping
  * CoNLL-U: standard 10-column lines; comments, multiword-token range lines
    (ID like ``1-2``) and empty-node lines (ID like ``1.1``) are kept verbatim
    as passthrough and excluded from the token sequence

In both labeled formats a sentence is a block of lines, and blocks are
separated by blank or whitespace-only lines; ``_blocks`` is the one reader
of that layout. A sentence without passthrough rows is written with default
rows: ``token<TAB>label`` for TwoColumn, and for CoNLL-U the ID, FORM and
``_`` in the other eight columns before the labels are filled in.

Inputs are UTF-8; a leading byte-order mark is dropped, and lines end at
LF, CRLF or CR. All outputs are UTF-8 with LF line endings and a trailing
newline.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataFormatError, ValidationError

logger = logging.getLogger(__name__)

TokenizedSentence = list[str]
TokenizedCorpus = list[TokenizedSentence]
ParallelCorpus = list[tuple[TokenizedSentence, TokenizedSentence]]


class Schema(enum.Enum):
    NER = "ner"
    POS = "pos"
    DEP = "dep"


class Format(enum.Enum):
    TWO_COL = "two-col"
    CONLLU = "conllu"


@dataclass
class TwoColRows:
    """Original field rows of a TwoColumn sentence, for exact round-trips."""

    token_col: int
    label_col: int
    rows: list[list[str]]


@dataclass
class ConlluRows:
    """Sentence block rows: ("raw", line) for comments/ranges/empty nodes,
    ("word", columns) for ordinary 10-column word lines."""

    rows: list[tuple[str, object]]


@dataclass
class LabeledSentence:
    tokens: list[str]
    schema: Schema
    labels: list[str] | None = None    # one tag per token (NER/POS)
    heads: list[int] | None = None     # DEP: 0 = root
    deprels: list[str] | None = None   # DEP
    passthrough: TwoColRows | ConlluRows | None = None

    def __post_init__(self):
        n = len(self.tokens)
        if n == 0:
            raise ValidationError("labeled sentence must have at least one token")
        for t in self.tokens:
            if not t or len(t.split()) != 1:
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


def read_mono(path, limit: int | None = None) -> TokenizedCorpus:
    """Read one tokenized sentence per line; blank lines are skipped.

    ``limit`` keeps only the first N sentences (0 keeps none).
    """
    if limit is not None and limit < 0:
        raise ValidationError(f"limit must be >= 0, got {limit}")
    corpus: TokenizedCorpus = []
    if limit == 0:
        return corpus
    with Path(path).open("r", encoding="utf-8-sig") as fh:
        for line in fh:
            tokens = line.split()
            if not tokens:
                continue
            corpus.append(tokens)
            if limit is not None and len(corpus) >= limit:
                break
    return corpus


def write_mono(corpus: TokenizedCorpus, path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for sentence in corpus:
            fh.write(" ".join(sentence) + "\n")


def read_parallel(src_path, tgt_path) -> ParallelCorpus:
    """Pair line i of the source file with line i of the target file.

    Line counts must match exactly; pairs where either side is blank are
    dropped with a counted warning. Lines are split as ``read_mono`` splits
    them, at ``\n``, ``\r\n`` or ``\r`` only: a U+2028 or form feed inside
    a line does not end it.
    """
    with Path(src_path).open("r", encoding="utf-8-sig") as fh:
        src_lines = list(fh)
    with Path(tgt_path).open("r", encoding="utf-8-sig") as fh:
        tgt_lines = list(fh)
    if len(src_lines) != len(tgt_lines):
        raise ValidationError(
            f"parallel line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)} lines"
        )
    pairs: ParallelCorpus = []
    dropped = 0
    for src, tgt in zip(src_lines, tgt_lines):
        s, t = src.split(), tgt.split()
        if not s or not t:
            dropped += 1
            continue
        pairs.append((s, t))
    if dropped:
        logger.warning("dropped %d parallel pair(s) with a blank side", dropped)
    return pairs


def write_parallel(corpus: ParallelCorpus, src_path, tgt_path) -> None:
    write_mono([s for s, _ in corpus], src_path)
    write_mono([t for _, t in corpus], tgt_path)


def read_labeled(
    path,
    schema: Schema,
    format: Format = Format.TWO_COL,
    token_col: int = 0,
    label_col: int = 1,
) -> LabeledCorpus:
    """Parse a labeled corpus in TwoColumn or CoNLL-U format."""
    if format is Format.TWO_COL:
        if schema is Schema.DEP:
            raise ValidationError("dep schema needs head/deprel columns; use the conllu format")
        return _read_two_col(path, schema, token_col, label_col)
    if schema is Schema.NER:
        raise ValidationError("conllu carries no NER column; use the two-col format")
    return _read_conllu(path, schema)


def _blocks(path):
    """Yield each sentence block of a labeled file as (line number, line) pairs.

    Blocks are separated by blank or whitespace-only lines. Text mode has
    already turned CRLF and CR line ends into LF.
    """
    block: list[tuple[int, str]] = []
    with Path(path).open("r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.strip():
                block.append((lineno, line))
            elif block:
                yield block
                block = []
    if block:
        yield block


def _sentence(path, line: int, tokens: list[str], schema: Schema, **columns) -> LabeledSentence:
    """Build a sentence; a validation failure is a format error at ``line``."""
    try:
        return LabeledSentence(tokens, schema, **columns)
    except ValidationError as exc:
        raise DataFormatError(str(exc), path=path, line=line) from exc


def _read_two_col(path, schema: Schema, token_col: int, label_col: int) -> LabeledCorpus:
    path = Path(path)
    need = max(token_col, label_col) + 1
    sentences: list[LabeledSentence] = []
    ncols: int | None = None
    for block in _blocks(path):
        rows: list[list[str]] = []
        for lineno, line in block:
            fields = line.split("\t")
            if ncols is None:
                ncols = len(fields)
                if ncols < need:
                    raise DataFormatError(
                        f"need at least {need} tab-separated columns, got {ncols}",
                        path=path, line=lineno,
                    )
            if len(fields) != ncols:
                raise DataFormatError(
                    f"inconsistent column count: expected {ncols}, got {len(fields)}",
                    path=path, line=lineno,
                )
            if not fields[token_col] or not fields[label_col]:
                raise DataFormatError("empty token or label field", path=path, line=lineno)
            rows.append(fields)
        sentences.append(_sentence(
            path, block[0][0], [r[token_col] for r in rows], schema,
            labels=[r[label_col] for r in rows],
            passthrough=TwoColRows(token_col, label_col, rows),
        ))
    return LabeledCorpus(schema, sentences)


_CONLLU_NCOLS = 10


def _is_range_or_empty_id(id_field: str) -> bool:
    """True for a multiword-token range ID (``1-2``) or an empty-node ID (``1.1``)."""
    return any(
        head.isdigit() and tail.isdigit()
        for head, _, tail in (id_field.partition("-"), id_field.partition("."))
    )


def _read_conllu(path, schema: Schema) -> LabeledCorpus:
    path = Path(path)
    sentences: list[LabeledSentence] = []
    for block in _blocks(path):
        rows: list[tuple[str, object]] = []
        words: list[tuple[int, list[str]]] = []
        for lineno, line in block:
            if line.startswith("#"):
                rows.append(("raw", line))
                continue
            cols = line.split("\t")
            if len(cols) != _CONLLU_NCOLS:
                raise DataFormatError(
                    f"expected {_CONLLU_NCOLS} columns, got {len(cols)}",
                    path=path, line=lineno,
                )
            if cols[0].isdigit():
                rows.append(("word", cols))
                words.append((lineno, cols))
            elif _is_range_or_empty_id(cols[0]):
                rows.append(("raw", line))
            else:
                raise DataFormatError(f"bad ID field {cols[0]!r}", path=path, line=lineno)
        if not words:
            raise DataFormatError("sentence block has no word lines", path=path, line=block[0][0])
        if schema is Schema.POS:
            columns = {"labels": [cols[3] for _, cols in words]}
        else:
            heads = []
            for lineno, cols in words:
                try:
                    heads.append(int(cols[6]))
                except ValueError:
                    raise DataFormatError(
                        f"non-integer HEAD {cols[6]!r}", path=path, line=lineno
                    ) from None
            columns = {"heads": heads, "deprels": [cols[7] for _, cols in words]}
        sentences.append(_sentence(
            path, words[0][0], [cols[1] for _, cols in words], schema,
            passthrough=ConlluRows(rows), **columns,
        ))
    return LabeledCorpus(schema, sentences)


def write_labeled(corpus: LabeledCorpus, path, format: Format = Format.TWO_COL) -> None:
    """Serialize a labeled corpus, preserving passthrough rows exactly."""
    if format is Format.TWO_COL:
        if corpus.schema is Schema.DEP:
            raise ValidationError("dep corpora cannot be written as two-col; use conllu")
        _write_two_col(corpus, path)
    else:
        if corpus.schema is Schema.NER:
            raise ValidationError("ner corpora cannot be written as conllu; use two-col")
        _write_conllu(corpus, path)


def _write_two_col(corpus: LabeledCorpus, path) -> None:
    blocks = []
    for sent in corpus.sentences:
        pt = sent.passthrough
        if not isinstance(pt, TwoColRows):
            pt = TwoColRows(0, 1, [list(row) for row in zip(sent.tokens, sent.labels)])
        lines = []
        for i, token in enumerate(sent.tokens):
            fields = pt.rows[i].copy()
            fields[pt.token_col] = token
            fields[pt.label_col] = sent.labels[i]
            lines.append("\t".join(fields))
        blocks.append("\n".join(lines))
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n\n".join(blocks))
        if blocks:
            fh.write("\n")


def _write_conllu(corpus: LabeledCorpus, path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for sent in corpus.sentences:
            if isinstance(sent.passthrough, ConlluRows):
                rows = sent.passthrough.rows
            else:
                rows = [("word", [str(i), token] + ["_"] * 8)
                        for i, token in enumerate(sent.tokens, start=1)]
            i = 0
            for kind, payload in rows:
                if kind == "raw":
                    fh.write(payload + "\n")
                    continue
                cols = list(payload)
                cols[1] = sent.tokens[i]
                if corpus.schema is Schema.POS:
                    cols[3] = sent.labels[i]
                else:
                    cols[6] = str(sent.heads[i])
                    cols[7] = sent.deprels[i]
                fh.write("\t".join(cols) + "\n")
                i += 1
            fh.write("\n")


def sniff_format(path) -> Format:
    """Guess TwoColumn vs CoNLL-U from the first non-blank lines.

    A ``#`` line without a tab is a CoNLL-U comment. Any other line,
    including a ``#`` line with a tab (a TwoColumn ``#<TAB>SYM`` row), means
    CoNLL-U when it has 10 tab-separated columns. When none of the first 20
    such lines decides, the file is TwoColumn.
    """
    with Path(path).open("r", encoding="utf-8-sig") as fh:
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
