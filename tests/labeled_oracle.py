"""Text-level reference for writing a labeled file back with new tokens and labels.

Deliberately independent of the package: it works on the text of a
TwoColumn or CoNLL-U file alone, with no parsed sentences and no kept rows.
Tests read a file with the package, replace every sentence's tokens and
labels, write it, and compare the bytes with ``fill``.
"""

import re

_WORD_ID = re.compile(r"[0-9]+")


def _lines(text):
    """The file's lines without their ends, as a text-mode reader splits
    them: a leading byte-order mark dropped, LF, CRLF and CR all ending a
    line."""
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    return lines


def _blocks(lines):
    """Runs of lines that are not blank or whitespace-only."""
    blocks, block = [], []
    for line in lines:
        if line.strip():
            block.append(line)
        elif block:
            blocks.append(block)
            block = []
    if block:
        blocks.append(block)
    return blocks


def _is_word_line(line, conllu):
    """Every TwoColumn line is a word line; a CoNLL-U one is a line that is
    not a comment and whose ID is a whole number (not a ``1-2`` range or a
    ``1.1`` empty node)."""
    if not conllu:
        return True
    return not line.startswith("#") and _WORD_ID.fullmatch(line.split("\t")[0]) is not None


def fill(text, conllu, columns, values):
    """The text of the file ``text`` written back with new column values.

    ``values[k][j]`` holds sentence k's new strings for field
    ``columns[j]``, one per word line in order. Every other line and field
    is copied as it was. Blocks are written with LF line ends; TwoColumn
    blocks are separated by one blank line, and each CoNLL-U block ends
    with one.
    """
    out = []
    blocks = _blocks(_lines(text))
    assert len(blocks) == len(values)
    for block, sentence in zip(blocks, values):
        word = 0
        lines = []
        for line in block:
            if _is_word_line(line, conllu):
                fields = line.split("\t")
                for col, column in zip(columns, sentence):
                    fields[col] = column[word]
                line = "\t".join(fields)
                word += 1
            lines.append(line)
        assert all(len(column) == word for column in sentence)
        out.append("".join(line + "\n" for line in lines))
    if conllu:
        return "".join(block + "\n" for block in out)
    return "\n".join(out)
