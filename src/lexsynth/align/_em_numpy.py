"""The EM E-step over one chunk of the slot layout, in numpy."""

import numpy as np


def estep_chunk(pair_t, local, group_ptr):
    """Expected counts of a chunk's pairs and the chunk's log-likelihood.

    A group is one target-token position; its slots, ``group_ptr[g]`` up to
    ``group_ptr[g + 1]``, are the NULL slot plus every source token of the
    sentence. ``local[s]`` indexes slot s's pair among the chunk's distinct
    pairs, and ``pair_t`` holds those pairs' probabilities; the counts come
    back in the same order. The group index per slot is made here with
    ``np.repeat``, and ``local`` is cast to ``intp`` once for its two uses.
    Each group's denominator is summed by ``np.bincount``, which adds the
    group's slots one at a time in slot order; ``np.add.reduceat`` would sum
    them pairwise and change the low bits of the table. Each slot's
    probability is divided by its group's denominator spread with
    ``np.repeat``, which gives the same bits as gathering it per slot.
    """
    widths = np.diff(group_ptr)
    g = np.repeat(np.arange(len(widths)), widths)
    local = local.astype(np.intp)
    post = pair_t[local]
    denom = np.bincount(g, weights=post, minlength=len(widths))
    ll = float(np.log(denom).sum() - np.log(widths.astype(np.float64)).sum())
    post /= np.repeat(denom, widths)
    counts = np.bincount(local, weights=post, minlength=len(pair_t))
    return counts, ll
