"""``extreal.linprog``, the package's one LP entry, against scipy's linprog.

The entry hands HiGHS the model ``scipy.optimize.linprog(method="highs")``
hands it, through ``scipy.optimize.milp`` with every variable continuous:
the A_ub rows first, then the A_eq rows with lo = hi.  The property draws
LPs with n <= 5 variables and m <= 8 inequality rows, with and without
equality rows, with free, bounded and default bounds, built to be optimal,
infeasible or unbounded, and requires the same status and, where optimal,
the same x bit for bit and the same objective value.

The property runs derandomized.  With ``OPTSTAB_RANDOMIZE=1`` it draws at
the ``--hypothesis-seed`` given to pytest instead, so a failure seen at a
fresh seed can be replayed with that seed.
"""

import os

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

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
