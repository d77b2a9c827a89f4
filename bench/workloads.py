"""The four benchmark workloads: configurations generated from the workload
seed, the operations one pass runs, and the correctness checks on their
results.

Stdlib only, so the orchestrator can write the configuration files without
importing numpy.  Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Tolerances of the tier-1 acceptance battery (criteria 06 and 07).
FORWARD_VS_QR_ABS = 1e-3
SIGMA_VS_GAP_REL = 0.10
KAPPA_ABS = 1e-3
KAPPA_CI_MULT = 3.0

TORUS_BATTERY = "torus-battery"
# Counted torus items; "lambda1-divergence" is the documented known-red
# statistic (README, tier-1 criterion 03) and is recorded only.
TORUS_COUNTED = ("propagator-agreement", "principal-direction", "separation-rate")
TORUS_DIAGNOSTIC = "lambda1-divergence"


@dataclass(frozen=True)
class Op:
    """One timed call: a pipeline command on a named config, or the torus battery."""

    label: str
    command: str
    config: str | None
    steps: int  # horizon steps the call asks for (emissions-per-step denominator)
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Check:
    """One cross-method or oracle comparison; a failed one fails ``label``."""

    label: str
    name: str
    value: float
    limit: float
    counted: bool = True

    @property
    def ok(self) -> bool:
        return math.isfinite(self.value) and self.value <= self.limit


@dataclass
class Workload:
    configs: dict
    ops: list
    check: object  # callable: {label: result document} -> [Check]


def _uniform(seed, n, horizon, series=False):
    return {"seed": seed, "model": {"kind": "uniform-entries", "n": n, "lo": 0.5, "hi": 2.0},
            "estimator": {"horizon": horizon}, "output": {"series": series}}


def _markov(seed, rng, horizon, depth):
    k = 3
    rows = [[rng.uniform(0.1, 1.0) for _ in range(k)] for _ in range(k)]
    transition = [[v / sum(r) for v in r] for r in rows]
    matrices = [[[rng.uniform(0.2, 2.0) for _ in range(k)] for _ in range(k)] for _ in range(k)]
    return {"seed": seed,
            "driver": {"kind": "markov-shift", "transition": transition},
            "model": {"kind": "markov-list", "matrices": matrices},
            "estimator": {"horizon": horizon, "depth": depth}}


def _forward_vs_qr(label, lambda1, exponents):
    return Check(label, "|forward lambda1 - QR top|", abs(lambda1 - exponents[0]), FORWARD_VS_QR_ABS)


def small_matrix(seed: int) -> Workload:
    horizon, depth, n_seeds = 2000, 1000, 3
    base = 100 * seed
    configs = {f"uniform-{k}": _uniform(base + k, 3, horizon, series=True) for k in range(n_seeds)}
    configs["markov"] = _markov(base, random.Random(seed), horizon, depth)
    ops = []
    for k in range(n_seeds):
        ops.append(Op(f"estimate-{k}", "estimate", f"uniform-{k}", horizon))
        ops.append(Op(f"oseledets-{k}", "oseledets", f"uniform-{k}", horizon))
    ops.append(Op("markov-estimate", "estimate", "markov", horizon))
    ops.append(Op("markov-orbit", "orbit", "markov", depth))

    def check(docs):
        return [_forward_vs_qr(f"oseledets-{k}",
                               docs[f"estimate-{k}"]["results"]["lambda1"]["value"],
                               docs[f"oseledets-{k}"]["results"]["exponents"])
                for k in range(n_seeds)]

    return Workload(configs, ops, check)


def wide_matrix(seed: int) -> Workload:
    horizon = 10_000
    configs = {"uniform": _uniform(100 * seed, 24, horizon)}
    ops = [Op("separate", "separate", "uniform", horizon),
           Op("oseledets", "oseledets", "uniform", horizon)]

    def check(docs):
        sep = docs["separate"]["results"]
        exps = docs["oseledets"]["results"]["exponents"]
        gap = exps[0] - exps[1]
        return [_forward_vs_qr("oseledets", sep["lambda1"]["value"], exps),
                Check("oseledets", "|sigma - QR gap| / gap",
                      abs(sep["sigma"]["value"] - gap) / gap, SIGMA_VS_GAP_REL)]

    return Workload(configs, ops, check)


def ode_piecewise(seed: int) -> Workload:
    horizon, dt = 100.0, 0.1
    configs = {"ode": {"seed": 100 * seed,
                       "model": {"kind": "ode-piecewise-uniform", "n": 3,
                                 "diag": [-1.0, 0.5], "offdiag": [0.0, 1.0]},
                       "estimator": {"horizon": horizon, "dt": dt}}}
    steps = round(horizon / dt)
    ops = [Op("estimate", "estimate", "ode", steps), Op("separate", "separate", "ode", steps)]

    def check(docs):
        res = docs["estimate"]["results"]
        kappa = res["lambda1_kappa_route"]
        limit = max(KAPPA_ABS, KAPPA_CI_MULT * kappa["ci"])
        return [Check("estimate", "|kappa route - forward lambda1|",
                      abs(kappa["value"] - res["lambda1"]["value"]), limit)]

    return Workload(configs, ops, check)


def torus_oracle(seed: int) -> Workload:
    # A fixed base point (the first of the CLI default, seed 0), whatever the
    # workload seed: the battery's cost per base point is heavy-tailed
    # (0.9 s to 7.8 s for the separation item alone), so a seed-drawn base
    # point would make the wall time a draw rather than a measurement.
    # One base point keeps a pass near 2.5 s, so a run holds several.
    del seed
    configs = {"torus": {"model": {"kind": "torus-example"}}}
    ops = [Op("battery", TORUS_BATTERY, "torus", 0, {"seed": 0, "n_omegas": 1})]

    def check(docs):
        checks = []
        for op in ops:
            items = {item["name"]: item["passed"] for item in docs[op.label]["results"]["items"]}
            checks += [Check(op.label, name, 0.0 if items[name] else 1.0, 0.0,
                             counted=name != TORUS_DIAGNOSTIC)
                       for name in TORUS_COUNTED + (TORUS_DIAGNOSTIC,)]
        return checks

    return Workload(configs, ops, check)


WORKLOADS = {
    "small-matrix": small_matrix,
    "wide-matrix": wide_matrix,
    "ode-piecewise": ode_piecewise,
    "torus-oracle": torus_oracle,
}
