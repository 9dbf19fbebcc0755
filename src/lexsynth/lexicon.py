"""Bilingual lexicon: data model, TSV ingestion, merging and statistics.

A lexicon maps each case-folded source word type to one dict from its
normalized candidate translations to their provenance, in the order first
seen in the input file, so seeded sampling downstream is reproducible from
the same file. The dict is also the duplicate check, so adding a pair never
scans a source's candidates (PanLex-style sources carry thousands). Add
pairs through ``Lexicon.add``; ``entries`` is for reading, and ``lookup``
and ``iter_entries`` build ``LexiconEntry`` views, of which none is stored.

File format: UTF-8 TSV, one ``source<TAB>target`` pair per line; blank lines
are ignored. A line starting with ``#`` is a comment only when it has no
tab, so an entry whose source starts with ``#`` (``#1<TAB>x``) is read back
as an entry; comments, including the metadata ones, never hold a tab. A few
optional metadata comments (``# src_lang: xx``, ``# tgt_lang: xx``,
``# provenance: induced``) apply to the whole file; ``merge`` takes an
unnamed language (``und``) to match any. The languages survive a save/load
round trip, and so does provenance when every pair has the same one. The
file holds no provenance per pair: ``save_lexicon`` writes the comment only
when every pair is induced, so a lexicon mixing base and induced pairs (as
``merge`` of the two makes) reloads as all base.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import DataFormatError, ValidationError, open_input

logger = logging.getLogger(__name__)

UND = "und"  # undetermined language code


class Provenance(enum.Enum):
    BASE = "base"
    INDUCED = "induced"


class LoadMode(enum.Enum):
    ALLOW_MULTI_TOKEN = "allow-multi-token"
    SINGLE_TOKEN_ONLY = "single-token-only"


class LexiconEntry(NamedTuple):
    """One (source word, translation) pair, built on request from a lexicon.

    ``source`` is a single case-folded token; ``target`` may contain several
    space-separated tokens.
    """

    source: str
    target: str
    provenance: Provenance = Provenance.BASE

    @property
    def is_multi_token(self) -> bool:
        return len(self.target.split()) > 1


@dataclass
class Lexicon:
    """Ordered source-type → candidate-translations table."""

    src_lang: str = UND
    tgt_lang: str = UND
    # case-folded source -> normalized target -> provenance, in first-seen order
    entries: dict[str, dict[str, Provenance]] = field(default_factory=dict)

    def __eq__(self, other):
        # Each source's candidates must match in order, which fixes the draws;
        # the order of the sources does not count.
        if not isinstance(other, Lexicon):
            return NotImplemented
        return (self.src_lang == other.src_lang and self.tgt_lang == other.tgt_lang
                and self.entries == other.entries
                and all(list(c) == list(other.entries[s]) for s, c in self.entries.items()))

    def add(self, source: str, target: str, provenance: Provenance = Provenance.BASE) -> bool:
        """Add one pair; returns False if the (source, target) pair already exists.

        The source is case-folded for keying; the target is normalized to
        single-space-joined tokens so serialization round-trips. A BASE pair
        replaces an INDUCED duplicate in place.
        """
        key = source.casefold()
        if key.split() != [key]:
            raise ValidationError(f"lexicon source must be a single non-empty token: {key!r}")
        target = " ".join(target.split())
        if not target:
            raise ValidationError(f"lexicon target must be non-empty: {target!r}")
        cands = self.entries.setdefault(key, {})
        if target not in cands:
            cands[target] = provenance
            return True
        if provenance is Provenance.BASE:  # an assignment keeps the key's position
            cands[target] = provenance
        return False

    def lookup(self, token: str) -> list[LexiconEntry]:
        """Candidates for a token, matched case-insensitively; [] if absent."""
        key = token.casefold()
        return [LexiconEntry(key, t, p) for t, p in self.entries.get(key, {}).items()]

    def entry_count(self) -> int:
        """Number of distinct (source, target) pairs."""
        return sum(len(c) for c in self.entries.values())

    def iter_entries(self):
        for source, cands in self.entries.items():
            yield from (LexiconEntry(source, t, p) for t, p in cands.items())


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
    pairs: list[tuple[str, str]] = []
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
            pairs.append((source, target))
    provenance = Provenance.INDUCED if meta.get("provenance") == "induced" else Provenance.BASE
    lex = Lexicon(meta.get("src_lang", UND), meta.get("tgt_lang", UND))
    for source, target in pairs:
        lex.add(source, target, provenance)
    if unusable:
        logger.warning("skipped %d unusable line(s) in %s", unusable, path)
    if multi_token:
        logger.info("dropped %d multi-token entries from %s", multi_token, path)
    return lex, unusable + multi_token


def save_lexicon(lex: Lexicon, path) -> None:
    """Write TSV with sources in first-seen order (LF, trailing newline).

    ``# provenance: induced`` is written only when every pair is induced.
    """
    path = Path(path)
    lines = []
    if lex.src_lang != UND:
        lines.append(f"# src_lang: {lex.src_lang}")
    if lex.tgt_lang != UND:
        lines.append(f"# tgt_lang: {lex.tgt_lang}")
    if lex.entries and all(p is Provenance.INDUCED for c in lex.entries.values() for p in c.values()):
        lines.append("# provenance: induced")
    for source, cands in lex.entries.items():
        lines.extend(f"{source}\t{target}" for target in cands)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def merge(base: Lexicon, extra: Lexicon) -> Lexicon:
    """Union of two lexicons over the same language pair.

    ``und`` matches any language, and the union takes the determined one.
    Base candidates precede extra candidates per source; duplicate pairs
    collapse keeping Base provenance.
    """
    out = Lexicon(base.src_lang if base.src_lang != UND else extra.src_lang,
                  base.tgt_lang if base.tgt_lang != UND else extra.tgt_lang)
    if extra.src_lang not in (UND, out.src_lang) or extra.tgt_lang not in (UND, out.tgt_lang):
        raise ValidationError(
            f"language mismatch: {base.src_lang}-{base.tgt_lang} vs {extra.src_lang}-{extra.tgt_lang}"
        )
    for lex in (base, extra):
        for source, cands in lex.entries.items():
            for target, provenance in cands.items():
                out.add(source, target, provenance)
    return out


def lexicon_stats(lex: Lexicon) -> LexiconStats:
    """Exact pair/source/candidate counts over a lexicon."""
    return LexiconStats(
        entry_pairs=lex.entry_count(),
        distinct_sources=len(lex.entries),
        multi_candidate_sources=sum(len(cands) > 1 for cands in lex.entries.values()),
        multi_token_targets=sum(" " in t for cands in lex.entries.values() for t in cands),
    )
