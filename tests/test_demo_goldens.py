"""Byte-level goldens for the stdout of the demos.

Each demo under ``demos/`` is run as ``__main__`` and the sha256 of what it
prints is pinned.  The residual lines of ``hoffman_and_egi`` (rounding-level
numbers such as 1.67e-15) come from LAPACK, so that pin holds for the
numpy/scipy build it was taken with; the other three demos make no LAPACK
call whose digits they print.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

GOLDEN_SHA256 = {
    "counterexample_walkthrough": "cb6ca64973535c448d9bdb020e03246a168f2816a60bf89b483f1edd10c76384",
    "gauges_tour": "e70d96bedc8b147ee0c997aeaa0b95066c72890f139e7dae70646a9baf1c84bf",
    "hoffman_and_egi": "454933513737d24b556b5b3e063f8f0ead6e4b1fe035aa275f42c141bf0f5478",
    "ladder_and_scheme": "b3e36f62e88d2b79544966c82544b97bff87c37085c82fe681ecbfb609e01a9e",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_demo_stdout_matches_golden(capsys, name):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
