"""Small statistical helpers shared by the assumption checkers and estimators."""

from __future__ import annotations

import numpy as np
from scipy.special import stdtrit


def mean_ci(values, confidence: float = 0.95) -> tuple[float, float]:
    """Sample mean and half-width of a Student-t confidence interval.

    A single sample (or identical samples) gets half-width 0.
    """
    x = np.asarray(values, dtype=float)
    m = float(x.mean())
    if x.size < 2:
        return m, 0.0
    s = float(x.std(ddof=1))
    if s == 0.0:
        return m, 0.0
    q = float(stdtrit(x.size - 1, 0.5 + confidence / 2.0))
    return m, q * s / np.sqrt(x.size)


def batch_means(values, batches: int, confidence: float = 0.95):
    """Batch-means estimate for a correlated sequence.

    Splits ``values`` into ``batches`` contiguous blocks and applies a
    Student-t interval to the block means.  Returns (mean, half-width,
    block_means).
    """
    x = np.asarray(values, dtype=float)
    if batches < 2:
        raise ValueError("batch means need at least 2 batches")
    if x.size < batches:
        raise ValueError(f"need at least {batches} samples, got {x.size}")
    cut = (x.size // batches) * batches
    blocks = x[:cut].reshape(batches, -1).mean(axis=1)
    m, hw = mean_ci(blocks, confidence)
    return m, hw, blocks
