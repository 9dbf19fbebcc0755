"""Exception types shared across the toolkit, and the one opener of input
text files, which turns undecodable input into a ``DataFormatError``."""

from contextlib import contextmanager


class LexsynthError(Exception):
    """Base class for all toolkit errors."""


class DataFormatError(LexsynthError):
    """A file does not conform to its declared format (CLI exit code 2)."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc = f"{loc}line {line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class ValidationError(LexsynthError):
    """Inputs are well-formed but violate an operation's contract (exit code 3)."""


@contextmanager
def open_input(path):
    """Open ``path`` for reading as UTF-8 text, a leading byte-order mark
    dropped.

    A byte that is not UTF-8 raises ``DataFormatError`` naming the path and
    the file offset of the first bad byte. Only that failure reads the file
    again, as bytes, to find the offset: a decode error inside a buffered
    text read gives it relative to the read's chunk. A pipe cannot be read
    again, so its error names the byte without an offset.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            where = ""
            if fh.buffer.seekable():
                fh.buffer.seek(0)
                try:
                    fh.buffer.read().decode("utf-8")  # a BOM is valid UTF-8
                except UnicodeDecodeError as whole:
                    exc = whole
                where = f" at byte offset {exc.start}"
            bad = f"byte 0x{exc.object[exc.start]:02x}{where}"
            raise DataFormatError(f"not valid UTF-8: {bad}", path=path) from None
