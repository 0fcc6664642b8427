"""``extreal.linprog``, the package's one LP entry, against scipy's linprog.

The entry builds the model ``scipy.optimize.linprog(method="highs")`` hands
HiGHS, the A_ub rows first, then the A_eq rows with lo = hi, and solves it
on a fresh HiGHS object.  The property draws
LPs with n <= 5 variables and m <= 8 inequality rows, with and without
equality rows, with free, bounded and default bounds, built to be optimal,
infeasible or unbounded, and requires the same status and, where optimal,
the same x bit for bit and the same objective value.

The property runs derandomized.  With ``OPTSTAB_RANDOMIZE=1`` it draws at
the ``--hypothesis-seed`` given to pytest instead, so a failure seen at a
fresh seed can be replayed with that seed.

Since every call builds a fresh model, an LP with many optima gets the same
one whatever was solved before: the ``mixed_box`` max-margin LP, whose x_2
may lie anywhere in [-|t|, |t|], is solved alone, after another slice,
after an infeasible and an unbounded LP, and after an LP on the same rows
whose one optimum has x_2 = -|t|, to the same bits.  A HiGHS object reused
with its last basis set again fails the last case (and the property).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab import linear
from optstab.extreal import linprog

SETTINGS = settings(max_examples=150, deadline=None, database=None,
                    derandomize=os.environ.get("OPTSTAB_RANDOMIZE") != "1")
SEEDS = st.integers(0, 2 ** 32 - 1)


def _lp(rng, n, m, k, bounds, outcome):
    """c and the keyword arguments of an LP in n variables with m inequality
    and k equality rows, whose status is ``outcome`` by construction."""
    A_ub, A_eq = rng.standard_normal((m, n)), rng.standard_normal((k, n))
    if outcome == "unbounded":   # x_0 is in no row, and c pushes it up
        A_ub[:, 0] = A_eq[:, 0] = 0.0
    x0 = rng.uniform(0.0, 1.0, n)   # within every kind of bounds below
    b_ub, b_eq = A_ub @ x0 + rng.uniform(0.0, 1.0, m), A_eq @ x0
    # c = -A_ub' y + A_eq' z + w with y >= 0, and w >= 0 for x >= 0: the dual
    # is feasible, so the LP is bounded below
    c = -A_ub.T @ rng.uniform(0.0, 1.0, m) + A_eq.T @ rng.standard_normal(k)
    if bounds == "default":
        c += rng.uniform(0.0, 1.0, n)
    if outcome == "unbounded":
        c[0] = -1.0
    if outcome == "infeasible":   # a . x <= -1 and a . x >= 1
        a = rng.standard_normal(n)
        A_ub, b_ub = np.vstack([A_ub, a, -a]), np.concatenate([b_ub, [-1.0, -1.0]])
    kw = dict(A_ub=A_ub, b_ub=b_ub)
    if k:
        kw.update(A_eq=A_eq, b_eq=b_eq)
    if bounds != "default":
        pair = {"free": (None, None), "bounded": (-2.0, 3.0)}[bounds]
        kw["bounds"] = [pair] * n if rng.uniform() < 0.5 else pair
    return c, kw


@SETTINGS
@given(seed=SEEDS, n=st.integers(1, 5), m=st.integers(0, 6), k=st.integers(0, 3),
       bounds=st.sampled_from(["free", "bounded", "default"]),
       outcome=st.sampled_from(["optimal", "infeasible", "unbounded"]))
def test_the_lp_entry_equals_scipy_linprog(seed, n, m, k, bounds, outcome):
    c, kw = _lp(np.random.default_rng(seed), n, m, min(k, n), bounds, outcome)
    got, want = linprog(c, **kw), scipy.optimize.linprog(c, method="highs", **kw)
    # a box holds the x_0 that no row bounds
    assert want.status == {"optimal": 0, "infeasible": 2,
                           "unbounded": 0 if bounds == "bounded" else 3}[outcome]
    assert got.status == want.status
    if want.status == 0:
        assert got.x.tobytes() == want.x.tobytes() and got.fun == want.fun


def test_the_lp_entry_refuses_other_methods():
    with pytest.raises(ValueError, match="highs"):
        linprog([1.0], method="highs-ds")


BOX = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)


def _max_margin_bits(t):
    """The bits of the point the max-margin LP of the ``mixed_box`` slice at
    t centres it at."""
    return linear._interior_point_in_slice(*BOX, [[1.0, 0.0]], [t])[0].tobytes().hex()


def test_a_max_margin_lp_with_many_optima_gets_the_same_one_after_any_lp():
    # the first LP of a new process: nothing was solved before it
    src = str(Path(linear.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = "import test_lp_entry as t; print(t._max_margin_bits(0.3))"
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=Path(__file__).parent,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    alone = done.stdout.strip()
    _max_margin_bits(-0.5)
    after_a_slice = _max_margin_bits(0.3)
    assert linprog([1.0], A_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0]).status == 2
    assert linprog([-1.0], bounds=(None, None)).status == 3
    after_no_optimum = _max_margin_bits(0.3)
    # the max-margin rows (x, m) at t = 0.3, with a cost whose one optimum is
    # the vertex x = (0.3, -0.3), m = 0.7: a basis kept from it is optimal
    # for the max-margin LP too
    A_ub = np.hstack([BOX[0], np.ones((4, 1))])
    other = linprog([0.0, 0.5, -1.0], A_ub=A_ub, b_ub=BOX[1], A_eq=[[1.0, 0.0, 0.0]],
                    b_eq=[0.3], bounds=[(None, None)] * 2 + [(0, None)])
    assert other.status == 0 and np.isclose(other.x[1], -0.3)
    after_another_vertex = _max_margin_bits(0.3)
    assert alone == after_a_slice == after_no_optimum == after_another_vertex
    x = np.frombuffer(bytes.fromhex(alone))
    assert x[0] == 0.3 and abs(x[1]) <= 0.3 + 1e-12   # on the slice, margin 0.7
