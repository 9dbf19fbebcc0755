"""Per-sentence reference for symmetrization, lexicon induction and the
alignment writer.

Deliberately independent of the package: an alignment is a
``(links, src_len, tgt_len)`` triple holding a set of ``(i, j)`` tuples, and
every function walks the links one by one. Tests compare the package's
columnar link arrays against these functions.
"""

import unicodedata
from collections import Counter


def symmetrize(forward, backward, method):
    """Combine per-sentence alignments in the forward orientation.

    ``method`` is "intersection", "forward" or "backward". Intersection
    keeps (i, j) iff forward links (i, j) and backward links (j, i).
    """
    if len(forward) != len(backward):
        raise ValueError(
            f"alignment count mismatch: {len(forward)} forward vs {len(backward)} backward")
    if method == "forward":
        return list(forward)
    out = []
    for n, ((f_links, f_src, f_tgt), (b_links, b_src, b_tgt)) in enumerate(
            zip(forward, backward)):
        if f_src != b_tgt or f_tgt != b_src:
            raise ValueError(
                f"sentence {n}: forward is {f_src}x{f_tgt} but backward is {b_src}x{b_tgt}")
        if method == "backward":
            links = {(i, j) for j, i in b_links}
        else:
            links = {(i, j) for i, j in f_links if (j, i) in b_links}
        out.append((links, f_src, f_tgt))
    return out


def _is_punct(word):
    return len(word) == 1 and unicodedata.category(word).startswith("P")


def induce_pairs(corpus, links_per_sentence, min_count, case_fold=True, keep_punct=False):
    """The (source, target) pairs linked at least ``min_count`` times, by
    descending count, then source, then target; pairs with a lone
    punctuation side are left out unless ``keep_punct``."""
    counts = Counter()
    for (src, tgt), links in zip(corpus, links_per_sentence):
        for i, j in links:
            s, t = src[i], tgt[j]
            if case_fold:
                s, t = s.casefold(), t.casefold()
            counts[(s, t)] += 1
    kept = [(pair, count) for pair, count in counts.items()
            if count >= min_count
            and (keep_punct or not (_is_punct(pair[0]) or _is_punct(pair[1])))]
    kept.sort(key=lambda item: (-item[1], item[0]))
    return [pair for pair, _ in kept]


def alignment_text(links_per_sentence):
    """The alignment file: one line per sentence, its sorted links as
    space-separated ``i-j``."""
    return "".join(" ".join(f"{i}-{j}" for i, j in sorted(links)) + "\n"
                   for links in links_per_sentence)
