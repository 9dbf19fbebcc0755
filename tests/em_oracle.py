"""Dense brute-force EM reference for checking the sparse aligner.

Deliberately independent of the package: plain dicts, direct formulas, no
shared code. Kept simple enough to audit by eye; only usable on tiny corpora.
"""

import math

NULL = "<NULL>"


def brute_force_model1(corpus, iterations, case_fold=True):
    """Returns (t, log_likelihoods) where t[src][tgt] is a conditional prob.

    corpus: list of (src_tokens, tgt_tokens). Initialization is uniform over
    the target types co-occurring with each source type (NULL co-occurs with
    everything). Each iteration: posterior of target token f over the
    sentence's source tokens plus NULL, expected counts, per-source
    renormalization; log-likelihood recorded under the pre-update table.
    """
    if case_fold:
        corpus = [([w.casefold() for w in s], [w.casefold() for w in t]) for s, t in corpus]

    cooc = {NULL: set()}
    for src, tgt in corpus:
        for f in tgt:
            cooc[NULL].add(f)
        for e in src:
            cooc.setdefault(e, set()).update(tgt)

    t = {e: {f: 1.0 / len(fs) for f in sorted(fs)} for e, fs in cooc.items()}

    lls = []
    for _ in range(iterations):
        counts = {e: {f: 0.0 for f in fs} for e, fs in cooc.items()}
        ll = 0.0
        for src, tgt in corpus:
            slots = [NULL] + list(src)
            for f in tgt:
                denom = sum(t[e][f] for e in slots)
                ll += math.log(denom / len(slots))
                for e in slots:
                    counts[e][f] += t[e][f] / denom
        lls.append(ll)
        for e, row in counts.items():
            total = sum(row.values())
            for f in row:
                t[e][f] = row[f] / total
    return t, lls


def brute_force_viterbi(corpus, t, case_fold=True):
    """Returns one set of (source index, target index) links per sentence.

    t[src][tgt] is a conditional probability with the NULL row under NULL; a
    word or pair missing from t has probability 0. Each target token links
    to its most probable source token, the lowest index among equals, unless
    NULL is strictly more probable than that token; NULL loses ties.
    """
    out = []
    for src, tgt in corpus:
        if case_fold:
            src = [w.casefold() for w in src]
            tgt = [w.casefold() for w in tgt]
        links = set()
        for j, f in enumerate(tgt):
            best_i, best_p = None, None
            for i, e in enumerate(src):
                p = t.get(e, {}).get(f, 0.0)
                if best_p is None or p > best_p:
                    best_i, best_p = i, p
            if best_i is not None and best_p >= t.get(NULL, {}).get(f, 0.0):
                links.add((best_i, j))
        out.append(links)
    return out
