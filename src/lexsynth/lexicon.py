"""Bilingual lexicon: data model, TSV ingestion, merging and statistics.

A lexicon maps a case-folded source word type to an ordered list of candidate
translations. Candidates keep the order in which they were first seen in the
input file so that seeded sampling downstream is reproducible from the same
file. Beside each source's ordered list, ``Lexicon`` keeps a private index
from target to list position, so adding a pair is a dictionary lookup
rather than a scan of the source's candidates (PanLex-style sources carry
thousands of them). Add pairs through ``Lexicon.add``; ``entries`` is for
reading.

File format: UTF-8 TSV, one ``source<TAB>target`` pair per line; blank lines
are ignored. A line starting with ``#`` is a comment only when it has no
tab, so an entry whose source starts with ``#`` (``#1<TAB>x``) is read back
as an entry; comments, including the metadata ones, never hold a tab. A few
optional metadata comments (``# src_lang: xx``, ``# tgt_lang: xx``,
``# provenance: induced``) survive a save/load round trip.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import DataFormatError, ValidationError, open_input

logger = logging.getLogger(__name__)

UND = "und"  # undetermined language code


class Provenance(enum.Enum):
    BASE = "base"
    INDUCED = "induced"


class LoadMode(enum.Enum):
    ALLOW_MULTI_TOKEN = "allow-multi-token"
    SINGLE_TOKEN_ONLY = "single-token-only"


@dataclass(frozen=True)
class LexiconEntry:
    """One (source word, translation) pair.

    ``source`` is a single case-folded token; ``target`` may contain several
    space-separated tokens and is stored verbatim.
    """

    source: str
    target: str
    provenance: Provenance = Provenance.BASE

    def __post_init__(self):
        if self.source.split() != [self.source]:
            raise ValidationError(f"lexicon source must be a single non-empty token: {self.source!r}")
        if not self.target or not self.target.split():
            raise ValidationError(f"lexicon target must be non-empty: {self.target!r}")

    @property
    def is_multi_token(self) -> bool:
        return len(self.target.split()) > 1


@dataclass
class Lexicon:
    """Ordered source-type → candidate-translations table."""

    src_lang: str = UND
    tgt_lang: str = UND
    entries: dict[str, list[LexiconEntry]] = field(default_factory=dict)
    # source -> target -> index of that candidate in entries[source]
    _positions: dict[str, dict[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def add(self, source: str, target: str, provenance: Provenance = Provenance.BASE) -> bool:
        """Add one pair; returns False if the (source, target) pair already exists.

        The source is case-folded for keying; the target is normalized to
        single-space-joined tokens so serialization round-trips. A BASE pair
        replaces an INDUCED duplicate in place.
        """
        key = source.casefold()
        target = " ".join(target.split())
        entry = LexiconEntry(key, target, provenance)
        cands = self.entries.setdefault(key, [])
        positions = self._positions.setdefault(key, {})
        i = positions.get(target)
        if i is not None:
            if provenance is Provenance.BASE and cands[i].provenance is Provenance.INDUCED:
                cands[i] = entry
            return False
        positions[target] = len(cands)
        cands.append(entry)
        return True

    def lookup(self, token: str) -> list[LexiconEntry]:
        """Candidates for a token, matched case-insensitively; [] if absent."""
        return self.entries.get(token.casefold(), [])

    def entry_count(self) -> int:
        """Number of distinct (source, target) pairs."""
        return sum(len(c) for c in self.entries.values())

    def iter_entries(self):
        for cands in self.entries.values():
            yield from cands


@dataclass(frozen=True)
class LexiconStats:
    entry_pairs: int
    distinct_sources: int
    multi_candidate_sources: int
    multi_token_targets: int

    def to_dict(self) -> dict:
        return asdict(self)


_META_KEYS = ("src_lang", "tgt_lang", "provenance")


def load_lexicon(path, mode: LoadMode = LoadMode.ALLOW_MULTI_TOKEN) -> tuple[Lexicon, int]:
    """Read a two-column TSV lexicon.

    Returns (lexicon, dropped_count). In both modes lines whose source field
    itself contains whitespace, which can never match a word-to-word lookup,
    are dropped and their count logged as a warning; in SINGLE_TOKEN_ONLY
    mode entries with a multi-token target are dropped too, their count
    logged at INFO. Duplicate pairs are silently collapsed keeping first-seen order.
    """
    meta: dict[str, str] = {}
    lex = Lexicon()
    unusable = multi_token = 0
    with open_input(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#") and "\t" not in line:
                body = line[1:].strip()
                if ":" in body:
                    k, _, v = body.partition(":")
                    if k.strip() in _META_KEYS:
                        meta[k.strip()] = v.strip()
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise DataFormatError(
                    f"expected source<TAB>target, got {len(fields)} field(s)",
                    path=path, line=lineno,
                )
            source, target = fields[0].strip(), fields[1].strip()
            if not source or not target:
                raise DataFormatError("empty source or target field", path=path, line=lineno)
            if source.split() != [source]:
                unusable += 1
                continue
            if mode is LoadMode.SINGLE_TOKEN_ONLY and len(target.split()) > 1:
                multi_token += 1
                continue
            provenance = Provenance.INDUCED if meta.get("provenance") == "induced" else Provenance.BASE
            lex.add(source, target, provenance)
    lex.src_lang = meta.get("src_lang", UND)
    lex.tgt_lang = meta.get("tgt_lang", UND)
    if unusable:
        logger.warning("skipped %d unusable line(s) in %s", unusable, path)
    if multi_token:
        logger.info("dropped %d multi-token entries from %s", multi_token, path)
    return lex, unusable + multi_token


def save_lexicon(lex: Lexicon, path) -> None:
    """Write TSV with sources in first-seen order (LF, trailing newline)."""
    path = Path(path)
    lines = []
    if lex.src_lang != UND:
        lines.append(f"# src_lang: {lex.src_lang}")
    if lex.tgt_lang != UND:
        lines.append(f"# tgt_lang: {lex.tgt_lang}")
    entries = list(lex.iter_entries())
    if entries and all(e.provenance is Provenance.INDUCED for e in entries):
        lines.append("# provenance: induced")
    for e in entries:
        lines.append(f"{e.source}\t{e.target}")
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def merge(base: Lexicon, extra: Lexicon) -> Lexicon:
    """Union of two lexicons over the same language pair.

    Base candidates precede extra candidates per source; duplicate pairs
    collapse keeping Base provenance.
    """
    if base.src_lang != extra.src_lang or base.tgt_lang != extra.tgt_lang:
        raise ValidationError(
            f"language mismatch: {base.src_lang}-{base.tgt_lang} vs {extra.src_lang}-{extra.tgt_lang}"
        )
    out = Lexicon(base.src_lang, base.tgt_lang)
    for e in base.iter_entries():
        out.add(e.source, e.target, e.provenance)
    for e in extra.iter_entries():
        out.add(e.source, e.target, e.provenance)
    return out


def lexicon_stats(lex: Lexicon) -> LexiconStats:
    """Exact pair/source/candidate counts over a lexicon."""
    pairs = 0
    multi_cand = 0
    multi_tok = 0
    for cands in lex.entries.values():
        pairs += len(cands)
        if len(cands) > 1:
            multi_cand += 1
        multi_tok += sum(1 for e in cands if e.is_multi_token)
    return LexiconStats(
        entry_pairs=pairs,
        distinct_sources=len(lex.entries),
        multi_candidate_sources=multi_cand,
        multi_token_targets=multi_tok,
    )
