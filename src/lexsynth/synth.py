"""Word-to-word synthesis of pseudo monolingual and pseudo labeled corpora.

Every token is looked up case-insensitively; covered tokens are replaced by
one of their candidate translations, the rest pass through unchanged. The
candidate draw for a position depends only on (seed, sentence index, token
index), so output is byte-identical across runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .corpus_io import LabeledCorpus, LabeledSentence, TokenizedCorpus, TokenizedSentence
from .errors import ValidationError
from .lexicon import Lexicon

_MASK = (1 << 64) - 1


def _draw(seed: int, sentence_index: int, token_index: int, n: int) -> int:
    """Uniform index in [0, n) from a splitmix64-style finalizer over the keys."""
    x = (
        seed * 0x9E3779B97F4A7C15
        + sentence_index * 0xBF58476D1CE4E5B9
        + token_index * 0x94D049BB133111EB
        + 0x2545F4914F6CDD1D
    ) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x % n


class CasePolicy(enum.Enum):
    # emit the lexicon target verbatim (reproduces the published examples)
    LEXICON_FORM = "lexicon-form"
    # uppercase the target's first letter when the source was title-cased
    RESTORE_CASE = "restore-case"


@dataclass(frozen=True)
class SynthesisConfig:
    seed: int
    case_policy: CasePolicy = CasePolicy.LEXICON_FORM

    def __post_init__(self):
        if not isinstance(self.seed, int):
            raise ValidationError("seed must be an integer")


@dataclass(frozen=True)
class CoverageReport:
    total_tokens: int
    replaced_tokens: int
    replacement_rate: float
    distinct_types: int
    covered_types: int
    sentences: int

    def to_dict(self) -> dict:
        return {
            "total_tokens": self.total_tokens,
            "replaced_tokens": self.replaced_tokens,
            "replacement_rate": self.replacement_rate,
            "distinct_types": self.distinct_types,
            "covered_types": self.covered_types,
            "sentences": self.sentences,
        }


class _Tally:
    """Lookup counters shared by synthesis and coverage."""

    def __init__(self):
        self.total = 0
        self.replaced = 0
        self.types: set[str] = set()
        self.covered: set[str] = set()
        self.sentences = 0

    def see(self, key: str, hit: bool):
        self.total += 1
        self.types.add(key)
        if hit:
            self.replaced += 1
            self.covered.add(key)

    def report(self) -> CoverageReport:
        return CoverageReport(
            total_tokens=self.total,
            replaced_tokens=self.replaced,
            replacement_rate=self.replaced / self.total if self.total else 0.0,
            distinct_types=len(self.types),
            covered_types=len(self.covered),
            sentences=self.sentences,
        )


def _apply_case(target: str, source: str, policy: CasePolicy) -> str:
    if policy is CasePolicy.RESTORE_CASE and source[:1].isupper() and source[1:].islower():
        return target[:1].upper() + target[1:]
    return target


def _pick(token, lex, cfg, sentence_index, token_index, tally):
    key = token.casefold()
    cands = lex.entries.get(key)
    if tally is not None:
        tally.see(key, cands is not None)
    if cands is None:
        return None
    if len(cands) == 1:
        chosen = cands[0]
    else:
        chosen = cands[_draw(cfg.seed, sentence_index, token_index, len(cands))]
    return _apply_case(chosen.target, token, cfg.case_policy)


def translate_tokens(
    sentence: TokenizedSentence,
    lex: Lexicon,
    cfg: SynthesisConfig,
    sentence_index: int,
    _tally: _Tally | None = None,
) -> TokenizedSentence:
    """Replace covered tokens; multi-token targets expand in place."""
    out: TokenizedSentence = []
    for token_index, token in enumerate(sentence):
        target = _pick(token, lex, cfg, sentence_index, token_index, _tally)
        if target is None:
            out.append(token)
        else:
            out.extend(target.split())
    return out


def synth_mono(
    corpus: TokenizedCorpus,
    lex: Lexicon,
    cfg: SynthesisConfig,
) -> tuple[TokenizedCorpus, CoverageReport]:
    """Pseudo monolingual synthesis: sentence i is translated with stream i.

    The coverage report counts input positions, so replacement_rate is
    unaffected by multi-token expansion.
    """
    tally = _Tally()
    out: TokenizedCorpus = []
    for i, sentence in enumerate(corpus):
        out.append(translate_tokens(sentence, lex, cfg, i, _tally=tally))
        tally.sentences += 1
    return out, tally.report()


def synth_labeled(
    corpus: LabeledCorpus,
    lex: Lexicon,
    cfg: SynthesisConfig,
) -> tuple[LabeledCorpus, CoverageReport]:
    """Pseudo labeled synthesis: tokens replaced 1:1, every annotation kept.

    The lexicon must contain single-token targets only, so token counts (and
    with them head indices) cannot change.
    """
    for entry in lex.iter_entries():
        if entry.is_multi_token:
            raise ValidationError(
                f"lexicon entry {entry.source!r} -> {entry.target!r} has a multi-token target; "
                "labeled synthesis requires a single-token-only lexicon"
            )

    tally = _Tally()
    out: list[LabeledSentence] = []
    for i, sent in enumerate(corpus.sentences):
        tokens = []
        for token_index, token in enumerate(sent.tokens):
            target = _pick(token, lex, cfg, i, token_index, tally)
            tokens.append(token if target is None else target)
        out.append(
            LabeledSentence(
                tokens,
                sent.schema,
                labels=sent.labels,
                heads=sent.heads,
                deprels=sent.deprels,
                passthrough=sent.passthrough,
            )
        )
        tally.sentences += 1
    return LabeledCorpus(corpus.schema, out), tally.report()


def coverage(corpus: TokenizedCorpus | LabeledCorpus, lex: Lexicon) -> CoverageReport:
    """Count lexicon hits without synthesizing anything."""
    if isinstance(corpus, LabeledCorpus):
        sentences = [s.tokens for s in corpus.sentences]
    else:
        sentences = corpus
    tally = _Tally()
    for sentence in sentences:
        for token in sentence:
            tally.see(token.casefold(), token.casefold() in lex.entries)
        tally.sentences += 1
    return tally.report()
