"""List-based reference for the plain-text corpus path.

Deliberately independent of the package: each sentence is a list of token
strings, read, mixed and written the way the package did before it held
one string per sentence. Tests compare the package's output bytes against
these functions.
"""

import random


def read_mono(path, limit=None):
    """One token list per non-blank line, at most ``limit`` of them."""
    corpus = []
    if limit == 0:
        return corpus
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            tokens = line.split()
            if not tokens:
                continue
            corpus.append(tokens)
            if limit is not None and len(corpus) >= limit:
                break
    return corpus


def write_mono(corpus, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sentence in corpus:
            fh.write(" ".join(sentence) + "\n")


def upsample_to_match(gold, target_size, seed):
    """Whole copies of ``gold``, then a seeded sample of the remainder in
    corpus order."""
    copies, remainder = divmod(target_size, len(gold))
    out = []
    for _ in range(copies):
        out.extend(gold)
    if remainder:
        picks = sorted(random.Random(seed).sample(range(len(gold)), remainder))
        out.extend(gold[i] for i in picks)
    return out


def concat_shuffle(corpora, seed, shuffle=True):
    out = []
    for corpus in corpora:
        out.extend(corpus)
    if shuffle:
        random.Random(seed).shuffle(out)
    return out
