"""Cross-cutting analytics: lexicon POS distribution and pipeline summaries."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Mapping, Sequence

from . import __version__
from .corpus_io import LabeledCorpus, Schema
from .errors import ValidationError
from .lexicon import Lexicon


@dataclass(frozen=True)
class PosDistribution:
    fractions: dict[str, float]  # UPOS tag → fraction over found sources
    found: int
    out_of_reference: int

    def to_dict(self) -> dict:
        return {**asdict(self), "fractions": dict(sorted(self.fractions.items()))}


def lexicon_pos_distribution(lex: Lexicon, tagged_reference: LabeledCorpus) -> PosDistribution:
    """Tag distribution of lexicon source words, via a POS-tagged reference.

    Each reference word type gets its majority tag (ties break to the
    lexicographically smallest); lexicon sources found in the reference
    contribute that tag, the rest are counted as out-of-reference.
    """
    if tagged_reference.schema is not Schema.POS:
        raise ValidationError("reference corpus must use the pos schema")
    if not len(tagged_reference):
        raise ValidationError("reference corpus is empty")
    tagged = Counter(zip(map(str.casefold, tagged_reference.tokens), tagged_reference.labels))
    best: dict[str, tuple[int, str]] = {}  # word -> (-count, tag) of its majority tag
    for (word, tag), n in tagged.items():
        best[word] = min(best.get(word, (0, "")), (-n, tag))
    majority = {word: tag for word, (_, tag) in best.items()}
    tag_counts: Counter = Counter()
    missing = 0
    for source in lex.entries:
        tag = majority.get(source)
        if tag is None:
            missing += 1
        else:
            tag_counts[tag] += 1
    found = sum(tag_counts.values())
    fractions = {tag: n / found for tag, n in tag_counts.items()} if found else {}
    return PosDistribution(fractions=fractions, found=found, out_of_reference=missing)


def _payload(value: Any) -> Any:
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, Mapping):
        return dict(value)
    return value


def pipeline_summary(
    stages: Sequence[tuple[str, Any]], seeds: Sequence[int] = ()
) -> dict:
    """Machine-readable run summary: (stage name, report) pairs in run order."""
    return {
        "tool": "lexsynth",
        "version": __version__,
        "seeds": list(seeds),
        "stages": [{"stage": name, "report": _payload(value)} for name, value in stages],
    }


def summary_json(summary: Mapping) -> str:
    """Byte-stable JSON rendering of a pipeline summary or a report's
    ``to_dict()``, the one the CLI writes and prints: two-space indent, one LF."""
    return json.dumps(summary, ensure_ascii=False, indent=2) + "\n"
