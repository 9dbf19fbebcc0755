"""Pure-Python reference for the seeded candidate draw.

Deliberately independent of the package: plain Python ints masked to 64
bits, the formula written out once. The package computes the same finalizer
in numpy ``uint64``; tests compare its picks against this function.
"""

MASK = (1 << 64) - 1


def draw(seed, sentence_index, token_index, n):
    """Uniform index in [0, n) from a splitmix64-style finalizer over the keys."""
    x = (
        seed * 0x9E3779B97F4A7C15
        + sentence_index * 0xBF58476D1CE4E5B9
        + token_index * 0x94D049BB133111EB
        + 0x2545F4914F6CDD1D
    ) & MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK
    x ^= x >> 31
    return x % n
