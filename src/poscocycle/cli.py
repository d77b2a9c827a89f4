"""Command-line entry point.

Subcommands: check, estimate, separate, orbit, oseledets, example-torus.
Exit codes: 0 success, 1 configuration error, a command line that does not
parse included, 2 model assumption hard failure (a trajectory violated
positivity), 3 numerical failure, including an example-torus validation
item that failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import read_config, validate_config
from .errors import ConfigError, EstimationError, PositivityViolation
from .pipelines import COMMANDS, run_command

_TORUS_DEFAULT = {"model": {"kind": "torus-example"}}


class _Parser(argparse.ArgumentParser):
    """argparse, but a command line that does not parse is a configuration
    error, exit 1: exit 2 means a model assumption failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser():
    p = _Parser(prog="poscocycle",
                description="Positive random cocycles: principal directions, "
                            "Lyapunov exponents, exponential separation.")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="path to the JSON run configuration")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--horizon", type=float, help="override the estimation horizon")
        sp.add_argument("--out", help="override the output directory")
        if name == "example-torus":
            sp.add_argument("--rho", type=float, help="rotation number of the torus-rotation driver, in (0, 1)")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_for(args)
        doc = run_command(args.command, cfg, out_dir=args.out)
    # LinAlgError is a ValueError, so the numerical branch comes first
    except (EstimationError, np.linalg.LinAlgError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PositivityViolation as exc:
        print(f"model assumption failure: {exc}", file=sys.stderr)
        return 2
    _print_summary(doc)
    if args.command == "example-torus" and not doc["results"]["passed"]:
        print("numerical failure: a torus validation item failed", file=sys.stderr)
        return 3
    return 0


def _config_for(args):
    """The run configuration: the config file or the command's built-in one,
    with the flags put in before it is validated, so that a bad flag value
    is named by its key."""
    if args.config:
        cfg = read_config(args.config)
    elif args.command == "example-torus":
        cfg = json.loads(json.dumps(_TORUS_DEFAULT))
    else:
        raise ConfigError("missing required option '--config'")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.horizon is not None:
        _block(cfg, "estimator")["horizon"] = args.horizon
    if args.command == "example-torus" and args.rho is not None:
        cfg.setdefault("driver", {"kind": "torus-rotation"})
        _block(cfg, "driver")["rho"] = args.rho
    return validate_config(cfg)


def _block(cfg, key):
    """The config's ``key`` object, for a flag to write into; one that is
    not an object is left for validate_config to reject."""
    blk = cfg.setdefault(key, {})
    return blk if isinstance(blk, dict) else {}


def _print_summary(doc):
    res = doc["results"]
    cmd = doc["command"]
    if cmd == "estimate":
        lam = res["lambda1"]
        print(f"lambda1 = {lam['value']:.9g} (ci {lam['ci']:.3g}, horizon {lam['horizon']}, seed {lam['seed']})")
    elif cmd == "separate":
        print(f"lambda1 = {res['lambda1']['value']:.9g}  lambda2 = {res['lambda2']['value']:.9g}  "
              f"sigma = {res['sigma']['value']:.9g}")
    elif cmd == "oseledets":
        print("exponents:", ", ".join(f"{v:.9g}" for v in res["exponents"]))
    elif cmd == "orbit":
        print(f"pullback depth {res['depth']}; depth-doubling direction drift {res['convergence_distance']:.3e}")
    elif cmd == "example-torus":
        for item in res["items"]:
            print(f"[{'PASS' if item['passed'] else 'FAIL'}] {item['name']}: {item['detail']}")
    elif cmd == "check":
        for rep in res["assumption_reports"]:
            extra = ""
            if rep["verdict"] == "empirical":
                extra = f" (estimate {rep['estimate']:.6g} +/- {rep['ci']:.3g})"
            elif rep["verdict"] == "fails":  # a failing report carries a witness
                extra = f" (witness 1 of {len(rep['witnesses'])}: {list(rep['witnesses'][0])})"
            print(f"{rep['condition']}: {rep['verdict']}{extra}")


if __name__ == "__main__":
    sys.exit(main())
