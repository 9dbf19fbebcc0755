"""Shared fixtures: worked-example data, corpus builders, fuzz generators."""

import random

import pytest
from hypothesis import strategies as st

from lexsynth.corpus_io import LabeledCorpus, LabeledSentence, Schema
from lexsynth.lexicon import Lexicon, Provenance

# Maltese worked examples (pseudo monolingual / pseudo labeled / distilled).
MONO_LEX_PAIRS = [
    ("for", "għal"), ("the", "il"), ("of", "ta’"), ("state", "stat"),
    ("which", "lima"), ("it", "hi"), ("to", "għal"), ("be", "tkun"),
    ("unnecessary", "bla bzonn"), ("and", "u"),
]
MONO_SRC = ("Anarchism calls for the abolition of the state , which it holds "
            "to be undesirable , unnecessary , and harmful .")
MONO_WANT = ("Anarchism calls għal il abolition ta’ il stat , lima hi holds "
             "għal tkun undesirable , bla bzonn , u harmful .")

LABELED_LEX_PAIRS = [
    ("I", "jien"), ("suspect", "iddubita"), ("the", "il"), ("of", "ta’"),
    ("Baghdad", "Bagdad"), ("will", "xewqa"), ("look", "hares"), ("as", "kif"),
    ("if", "jekk"), ("war", "gwerra"), ("this", "dan"), ("week", "ġimgħa"),
]
LABELED_SRC = "I suspect the streets of Baghdad will look as if a war is looming this week ."
LABELED_WANT = "jien iddubita il streets ta’ Bagdad xewqa hares kif jekk a gwerra is looming dan ġimgħa ."
LABELED_TAGS = "PRON VERB DET NOUN ADP PROPN AUX VERB SCONJ SCONJ DET NOUN AUX VERB DET NOUN PUNCT"
DISTILLED_TAGS = "PRON VERB DET NOUN ADP PROPN NOUN NOUN SCONJ SCONJ DET NOUN AUX VERB DET NOUN PUNCT"


# Text as the file formats carry it, for round-trip properties. Every reader
# decodes UTF-8, so a lone surrogate cannot be written; tokens are split at
# whitespace (``str.split``), so a token holds none; lines end at \n, \r
# or \r\n and fields are split at tabs, so a field holds none of those.
TOKENS = st.text(st.characters(codec="utf-8").filter(lambda c: not c.isspace()),
                 min_size=1, max_size=6)
FIELDS = st.text(st.characters(codec="utf-8", exclude_characters="\t\r\n"), max_size=6)
# Every reader drops a byte-order mark at the start of a file, so a file
# whose text starts with one cannot round-trip.
BOM = "\ufeff"
# What str.split breaks a line at but text-mode reading does not end it at:
# every whitespace character but LF and CR, the space included.
SPACES = [c for c in map(chr, range(0x110000)) if c.isspace() and c not in "\n\r"]
# Between tokens and at either end of a line: any whitespace a line can
# hold, or only spaces, mostly single ones.
SEPARATORS = st.sampled_from(["  ", " \t\u00a0", *SPACES])
EDGES = st.sampled_from(["", *SPACES])
NEAR_SEPARATORS = st.sampled_from([" ", " ", " ", "  "])
NEAR_EDGES = st.sampled_from(["", "", "", " "])


@st.composite
def mono_texts(draw):
    """A plain-text file with a BOM or not, LF, CRLF or CR line ends, and
    blank and whitespace-only lines among the sentences. Half the files
    hold no whitespace but spaces, mostly single ones, so that many lines,
    and chunks of them, are single-spaced already, or all but one space."""
    text = BOM if draw(st.booleans()) else ""
    separators, edges = (SEPARATORS, EDGES) if draw(st.booleans()) else (NEAR_SEPARATORS, NEAR_EDGES)
    for _ in range(draw(st.integers(0, 8))):
        line = draw(edges)
        for n, token in enumerate(draw(st.lists(TOKENS, max_size=4))):
            line += (draw(separators) if n else "") + token
        text += line + draw(edges) + draw(st.sampled_from(["\n", "\r\n", "\r", ""]))
    return text


def build_lexicon(pairs, provenance=Provenance.BASE, **langs):
    lex = Lexicon(**langs)
    for source, target in pairs:
        lex.add(source, target, provenance)
    return lex


def pos_corpus(*sentences):
    """Build a POS-schema corpus from (tokens, tags) pairs or space-joined strings."""
    out = []
    for tokens, tags in sentences:
        if isinstance(tokens, str):
            tokens = tokens.split()
        if isinstance(tags, str):
            tags = tags.split()
        out.append(LabeledSentence(list(tokens), Schema.POS, labels=list(tags)))
    return LabeledCorpus(Schema.POS, out)


@pytest.fixture
def mono_lexicon():
    return build_lexicon(MONO_LEX_PAIRS)


@pytest.fixture
def labeled_lexicon():
    return build_lexicon(LABELED_LEX_PAIRS)


@pytest.fixture
def table2_pos_corpus():
    return pos_corpus((LABELED_SRC, LABELED_TAGS))


_NER_TAGS = ["O", "O", "O", "B-PER", "I-PER", "B-LOC", "B-ORG", "I-ORG", "B-MISC"]
_POS_TAGS = ["NOUN", "VERB", "DET", "ADP", "PRON", "ADJ", "ADV", "PROPN", "PUNCT"]
_DEPRELS = ["nsubj", "obj", "det", "root", "amod", "case", "obl"]


def random_labeled_sentence(rng: random.Random, schema: Schema) -> LabeledSentence:
    n = rng.randint(1, 12)
    tokens = [f"w{rng.randint(0, 400)}" for _ in range(n)]
    if schema is Schema.NER:
        return LabeledSentence(tokens, schema, labels=[rng.choice(_NER_TAGS) for _ in range(n)])
    if schema is Schema.POS:
        return LabeledSentence(tokens, schema, labels=[rng.choice(_POS_TAGS) for _ in range(n)])
    return LabeledSentence(
        tokens, schema,
        heads=[rng.randint(0, n) for _ in range(n)],
        deprels=[rng.choice(_DEPRELS) for _ in range(n)],
    )


def verse_corpus(n_pairs=5000, seed=20):
    """Deterministic verse-scale parallel corpus for induction/benchmark runs.

    A Zipf-ish source vocabulary is mapped word-to-word into a synthetic
    target language, with occasional translation ambiguity, token drops,
    spurious insertions and local reordering, so alignment has realistic
    noise to cut through.
    """
    rng = random.Random(seed)
    vocab_size = 3000
    source_vocab = [f"src{i}" for i in range(vocab_size)]
    translation = {}
    for i, word in enumerate(source_vocab):
        variants = [f"tgt{i}"]
        if rng.random() < 0.2:
            variants.append(f"tgt{i}b")
        translation[word] = variants
    weights = [1.0 / (rank + 3) for rank in range(vocab_size)]
    pairs = []
    for _ in range(n_pairs):
        length = rng.randint(6, 18)
        src = rng.choices(source_vocab, weights=weights, k=length)
        tgt = []
        for word in src:
            if rng.random() < 0.1:
                continue  # untranslated drop
            tgt.append(rng.choice(translation[word]))
        if not tgt:
            tgt = [rng.choice(translation[src[0]])]
        if rng.random() < 0.1:
            tgt.insert(rng.randint(0, len(tgt)), f"tgt{rng.randint(0, vocab_size - 1)}")
        for k in range(len(tgt) - 1):
            if rng.random() < 0.15:
                tgt[k], tgt[k + 1] = tgt[k + 1], tgt[k]
        pairs.append((src, tgt))
    return pairs
