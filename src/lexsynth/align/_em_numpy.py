"""The EM E-step over one chunk of the slot layout, in numpy."""

import numpy as np


def estep_chunk(t, k_flat, g_flat, group_ptr, g_lo, g_hi, n_pairs):
    """Expected counts and log-likelihood for groups [g_lo, g_hi).

    A group is one target-token position; its slots are the NULL slot plus
    every source token of the sentence. ``k_flat[s]`` is the translation-table
    pair index of slot s.
    """
    s_lo = int(group_ptr[g_lo])
    s_hi = int(group_ptr[g_hi])
    k = k_flat[s_lo:s_hi]
    g = g_flat[s_lo:s_hi] - g_lo
    tk = t[k]
    denom = np.bincount(g, weights=tk, minlength=g_hi - g_lo)
    widths = np.diff(group_ptr[g_lo:g_hi + 1])
    ll = float(np.log(denom).sum() - np.log(widths.astype(np.float64)).sum())
    post = tk / denom[g]
    counts = np.bincount(k, weights=post, minlength=n_pairs)
    return counts, ll
