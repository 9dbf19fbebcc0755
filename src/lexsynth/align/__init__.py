"""Statistical word alignment and lexicon induction."""

from .induce import induce_lexicon, symmetrize, write_alignments
from .model1 import (
    NULL_WORD,
    AlignerConfig,
    Alignments,
    EncodedCorpus,
    SentenceAlignment,
    Symmetrization,
    TranslationTable,
    swap_corpus,
    train_model1,
    viterbi_align,
)

__all__ = [
    "NULL_WORD",
    "AlignerConfig",
    "Alignments",
    "EncodedCorpus",
    "SentenceAlignment",
    "Symmetrization",
    "TranslationTable",
    "induce_lexicon",
    "swap_corpus",
    "symmetrize",
    "train_model1",
    "viterbi_align",
    "write_alignments",
]
