"""The EM E-step over one chunk of the slot layout, in numpy."""

import numpy as np


def estep_chunk(t, k_flat, group_ptr, g_lo, g_hi, n_pairs):
    """Expected counts and log-likelihood for groups [g_lo, g_hi).

    A group is one target-token position; its slots, ``group_ptr[g]`` up to
    ``group_ptr[g + 1]``, are the NULL slot plus every source token of the
    sentence. ``k_flat[s]`` is the translation-table pair index of slot s.
    The chunk's group index per slot is made here with ``np.repeat``. Each
    group's denominator is summed by ``np.bincount``, which adds the group's
    slots one at a time in slot order; ``np.add.reduceat`` would sum them
    pairwise and change the low bits of the table.
    """
    s_lo = int(group_ptr[g_lo])
    s_hi = int(group_ptr[g_hi])
    widths = np.diff(group_ptr[g_lo:g_hi + 1])
    g = np.repeat(np.arange(g_hi - g_lo), widths)
    k = k_flat[s_lo:s_hi]
    tk = t[k]
    denom = np.bincount(g, weights=tk, minlength=g_hi - g_lo)
    ll = float(np.log(denom).sum() - np.log(widths.astype(np.float64)).sum())
    post = tk / denom[g]
    counts = np.bincount(k, weights=post, minlength=n_pairs)
    return counts, ll
