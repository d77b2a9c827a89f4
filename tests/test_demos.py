"""The demos run to completion; each of these takes about a second."""

from pathlib import Path

import pytest

from test_config_cli import run_python

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["assumption_checks", "leslie_populations", "pullback_orbit",
                                  "random_products_separation"])
def test_demo_exits_0(name):
    r = run_python(str(DEMOS / f"{name}.py"))
    assert r.returncode == 0, r.stderr
