"""The orbit enumerator the walk replaced, kept as the tests' reference.

It builds every nondecreasing x in Z_N^k as a full digit row, one block
per leading digit, and weighs each row by its orbit size from the row
itself; it shares no code with subsetsum's prefix-sharing walk.
"""

import numpy as np


def _nondecreasing_blocks(N: int, k: int):
    """The nondecreasing x in Z_N^k in lexicographic order, one (S, k)
    block per leading digit."""
    for lead in range(N):
        rows = np.full((1, 1), lead, dtype=np.int64)
        for _ in range(k - 1):
            # append a column, each digit at least the one before it
            last = rows[:, -1]
            reps = N - last
            first = np.repeat(np.cumsum(reps) - reps, reps)
            digit = np.repeat(last, reps) + np.arange(first.size) - first
            rows = np.column_stack([np.repeat(rows, reps, axis=0), digit])
        yield rows


def _orbit_weights(xs: np.ndarray) -> np.ndarray:
    """Orbit sizes k!/prod_v m_v! of nondecreasing rows, built position by
    position as i!/prod c, so no factorial is ever formed."""
    w = np.ones(xs.shape[0], dtype=np.int64)
    run = np.ones(xs.shape[0], dtype=np.int64)
    for i in range(1, xs.shape[1]):
        # run: how many of x_1 .. x_(i+1) equal x_(i+1)
        run = np.where(xs[:, i] == xs[:, i - 1], run + 1, 1)
        w = w * (i + 1) // run
    return w
