"""Small statistical helpers shared by the assumption checkers and estimators.

Confidence intervals are two-sided at 95%.  Their Student-t multiplier,
``t975``, is computed here from numpy and the standard library, so no
scipy module is loaded: a Cornish-Fisher start, then Newton on the exact
distribution function for integer degrees of freedom.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist

import numpy as np

_P = 0.975  # the upper quantile of a two-sided 95% interval
_Z = NormalDist().inv_cdf(_P)


@functools.lru_cache(maxsize=None)
def _coefficients(size):
    """The series coefficients C(2k, k) / 4^k (even df) and 4^k / ((2k + 1)
    C(2k, k)) (odd df) for k < ``size``, correctly rounded from exact
    integers; they do not depend on df, so a few power-of-two sizes serve
    every call."""
    combs = [math.comb(2 * k, k) for k in range(size)]
    return (np.array([c / 4 ** k for k, c in enumerate(combs)]),
            np.array([4 ** k / ((2 * k + 1) * c) for k, c in enumerate(combs)]))


def _central_mass(t, df):
    """P(|T| <= t) for Student's t with integer ``df`` >= 3, from the finite
    series of Abramowitz & Stegun 26.7.3-4 in cos^2(theta) = 1 / (1 + t^2/df);
    its powers are taken as exp(-k log1p(t^2/df)), so that their rounding
    does not grow with k.  Every term is positive and summed with fsum."""
    m = df // 2
    even, odd = _coefficients(1 << (m - 1).bit_length())
    terms = (odd if df % 2 else even)[:m] * np.exp(-math.log1p(t * t / df) * np.arange(m))
    if df % 2 == 0:
        return t / math.sqrt(df + t * t) * math.fsum(terms.tolist())
    theta = math.atan(t / math.sqrt(df))
    return 2.0 / math.pi * (theta + t * math.sqrt(df) / (df + t * t) * math.fsum(terms.tolist()))


def t975(df: int) -> float:
    """The 0.975 quantile of Student's t with integer ``df`` >= 1.

    df = 1 and 2 have closed forms.  Above, the Cornish-Fisher expansion
    (A&S 26.7.5; Hill, CACM 13 (1970), Alg. 396) starts Newton on
    ``_central_mass``, which stops once a step is below 2^-30 t; the
    residual step then lies at the rounding level of the series.
    """
    if df == 1:
        return 1.0 / math.tan(math.pi * (1.0 - _P))
    if df == 2:
        return (2.0 * _P - 1.0) / math.sqrt(2.0 * _P * (1.0 - _P))
    z, z2 = _Z, _Z * _Z
    g = (z * (z2 + 1.0) / 4.0,
         z * ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0,
         z * (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0,
         z * ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0)
    t = z + sum(gk / df ** (k + 1) for k, gk in enumerate(g))
    # log of the density's constant, Gamma((df+1)/2) / (sqrt(df pi) Gamma(df/2))
    log_c = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    for _ in range(50):
        density = math.exp(log_c - 0.5 * (df + 1) * math.log1p(t * t / df))
        step = (_central_mass(t, df) - (2.0 * _P - 1.0)) / (2.0 * density)
        t -= step
        if abs(step) <= 2.0 ** -30 * t:
            return t
    raise ArithmeticError(f"t quantile for df = {df} did not converge")


def mean_ci(values) -> tuple[float, float]:
    """Sample mean and half-width of a 95% Student-t confidence interval.

    A single sample (or identical samples) gets half-width 0.
    """
    x = np.asarray(values, dtype=float)
    m = float(x.mean())
    if x.size < 2:
        return m, 0.0
    s = float(x.std(ddof=1))
    if s == 0.0:
        return m, 0.0
    return m, t975(x.size - 1) * s / np.sqrt(x.size)


def batch_means(values, batches: int):
    """Batch-means estimate for a correlated sequence.

    Splits ``values`` into ``batches`` contiguous blocks and applies a 95%
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
    m, hw = mean_ci(blocks)
    return m, hw, blocks
