"""``energy_ladder()``'s potential against the whole matrix of pairs.

The kernel of ``energy_ladder()`` is marked with its potential E, and
``sets`` takes d(p, Q) as min E(Q) - E(p) (E(p) - max E(Q) for d(Q, p))
without forming the pairs.  Rounding is monotone, so every value must equal
the min over the whole matrix of ``eval_distances`` values, bit for bit,
over the same draws; a level below 1 must raise as the kernel does.

The property runs derandomized.  With ``OPTSTAB_RANDOMIZE=1`` it draws at
the ``--hypothesis-seed`` given to pytest instead, so a failure seen at a
fresh seed can be replayed with that seed.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab import sets
from optstab.distances import PseudoDistance, energy_ladder, eval_distance, eval_distances
from optstab.extreal import INF, row_form
from optstab.optima import ObjectiveFn, domain_transfer_check
from optstab.sets import (FiniteCloud, ImplicitSampled, asym_hausdorff, hausdorff,
                          point_set_distance)

SETTINGS = settings(max_examples=60, deadline=None, database=None,
                    derandomize=os.environ.get("OPTSTAB_RANDOMIZE") != "1")
HUGE = [1e200, 1.7e308, INF]
LEVEL_MESSAGE = "energy levels are the integers"


def _levels(rng, n, style):
    if style == "small":
        return rng.integers(1, 40, n).astype(float)
    if style == "fractional":                    # truncated to an integer
        return rng.uniform(1.0, 60.0, n)
    if style == "repeated":                      # few distinct levels, many copies
        pool = rng.integers(1, 9, int(rng.integers(1, 4))).astype(float)
        return pool[rng.integers(0, len(pool), n)]
    if style == "huge":                          # E is -0.0 (or tiny) there
        return rng.choice(np.array([1.0, 2.0, 3.5, 1e150, *HUGE]), n)
    levels = rng.integers(1, 12, n).astype(float)  # "below one": one level under 1
    levels[rng.integers(0, n)] = rng.choice([0.5, 0.0, -3.0, -INF])
    return levels


@st.composite
def level_sets(draw):
    """A cloud of 1 to 300 levels (a 1-D or an (n, 1) array), or a sampled
    set of levels that accepts every draw."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    style = draw(st.sampled_from(["small", "fractional", "repeated", "huge", "below one"]))
    if draw(st.booleans()):
        levels = _levels(rng, draw(st.integers(1, 300)), style)
        if style == "below one" and draw(st.booleans()):
            levels = np.abs(levels) + 1.0        # valid again: not every such example raises
        return FiniteCloud(levels if draw(st.booleans()) else levels[:, None])
    return ImplicitSampled(member=lambda x: True, dim=1, witness=[float(rng.integers(1, 5))],
                           sampler=lambda n, rg: _levels(rg, n, style))


def _matrix(d, P, Q):
    """d(p, q) for every pair, p down the rows and q across, by eval_distances."""
    P, Q = (np.asarray(X, dtype=float).reshape(len(X), 1) for X in (P, Q))
    pairs = eval_distances(d, np.repeat(P, len(Q), axis=0), np.tile(Q, (len(P), 1)))
    return pairs.reshape(len(P), len(Q))


def _bits(*values):
    return [np.float64(v).tobytes() for v in values]


def _outcome(fn):
    try:
        return fn()
    except ValueError as err:
        return ValueError, str(err)


@SETTINGS
@given(level_sets(), level_sets(), st.sampled_from([1.0, 2.9, 17.0, *HUGE]),
       st.integers(1, 300), st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
def test_set_distances_equal_the_pair_matrix(A, B, x, budget, seed):
    d = energy_ladder()

    def rng():   # the same draws for each call and its reference
        return None if seed is None else np.random.default_rng(seed)

    def reference(first, second, value):
        """value(P, Q) over the points P and Q drawn for first, then second,
        as the library draws them, and whether both sets are clouds."""
        points = sets._draws(budget, rng())
        (P, exact_p), (Q, exact_q) = points(first), points(second)
        return value(P, Q), exact_p and exact_q

    def row_max(P, Q):
        return _matrix(d, P, Q).min(axis=1).max()

    def report(rep):
        return rep.value, rep.mode == "exact"

    def both(d_ab, d_ba, exact):
        return (d_ab, d_ba), exact

    x_cloud = FiniteCloud([x])   # a cloud draws nothing from the generator
    cases = [
        (lambda: report(point_set_distance(d, x, B, budget, rng())),
         lambda: reference(x_cloud, B, lambda P, Q: _matrix(d, P, Q).min())),
        (lambda: report(point_set_distance(d, x, B, budget, rng(), orientation="to_point")),
         lambda: reference(x_cloud, B, lambda P, Q: _matrix(d, Q, P).min())),
        (lambda: report(asym_hausdorff(d, A, B, budget, rng())),
         lambda: reference(A, B, row_max)),
        (lambda: report(asym_hausdorff(d, B, A, budget, rng())),
         lambda: reference(B, A, row_max)),
        (lambda: report(hausdorff(d, A, B, budget, rng())),
         lambda: reference(A, B, lambda P, Q: max(row_max(P, Q), row_max(Q, P)))),
        (lambda: both(*sets._hausdorff(d, A, B, sets._draws(budget, rng()))),
         lambda: reference(A, B, lambda P, Q: (row_max(P, Q), row_max(Q, P)))),
    ]
    for got, want in cases:
        got, want = _outcome(got), _outcome(want)
        if want[0] is ValueError:
            assert got == want
            continue
        (value, exact), (ref, ref_exact) = got, want
        assert exact == ref_exact
        assert _bits(*np.atleast_1d(value)) == _bits(*np.atleast_1d(ref))


@pytest.mark.parametrize("make", [
    lambda d: point_set_distance(d, 0.5, FiniteCloud([1.0, 2.0])),
    lambda d: point_set_distance(d, 2.0, FiniteCloud([1.0, 0.0]), orientation="to_point"),
    lambda d: asym_hausdorff(d, FiniteCloud([2.0]), FiniteCloud([-INF, 3.0])),
    lambda d: hausdorff(d, FiniteCloud([0.0, 2.0]), FiniteCloud([1.0])),
    lambda d: hausdorff(d, FiniteCloud([2.0]), ImplicitSampled(
        member=lambda x: True, dim=1, witness=[1.0],
        sampler=lambda n, rg: rg.uniform(0.0, 3.0, n)), budget=50),
], ids=["query", "to-point-set", "negative-infinity", "cloud", "sampled"])
def test_a_level_below_one_raises_the_kernels_error(make):
    with pytest.raises(ValueError, match=LEVEL_MESSAGE):
        eval_distance(energy_ladder(), 0.5, 1.0)
    with pytest.raises(ValueError, match=LEVEL_MESSAGE):
        make(energy_ladder())


@pytest.mark.parametrize("level", HUGE)
def test_huge_levels_do_not_warn(level):
    # E(level) is -0.0, E correctly rounded; its square overflows quietly
    d = energy_ladder()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_distance(d, level, 1.0) == -13.6
        assert eval_distance(d, 1.0, level) == 13.6
        assert point_set_distance(d, level, FiniteCloud([1.0, 2.0])).value == -13.6
        assert point_set_distance(d, level, FiniteCloud([1.0, 2.0]),
                                  orientation="to_point").value == 3.4
        assert hausdorff(d, FiniteCloud([level]), FiniteCloud([1.0])).value == 13.6


def test_the_potential_sees_each_level_once_per_direction():
    seen = []
    E = energy_ladder().fn.potential

    def counted(X):
        seen.append(len(X))
        return E(X)

    kernel = row_form(lambda X, Y: counted(Y) - counted(X))
    kernel.potential = counted
    d = PseudoDistance(name="counted-energy", fn=kernel, ambient_dim=1)
    rng = np.random.default_rng(7)
    A = FiniteCloud(rng.integers(1, 30, 200).astype(float))
    B = ImplicitSampled(member=lambda x: True, dim=1, witness=[1.0],
                        sampler=lambda n, rg: rg.integers(1, 30, n).astype(float))
    n_b = len(B.sample(150, np.random.default_rng(0)))   # the draw the calls reuse
    for call, directions in [(asym_hausdorff, 1), (hausdorff, 2)]:
        seen.clear()
        got = call(d, A, B, budget=150)
        want = call(energy_ladder(), A, B, budget=150)
        assert _bits(got.value) == _bits(want.value)
        assert 0 < sum(seen) <= directions * (len(A) + n_b)


def test_a_declared_potential_that_gives_nan_is_refused():
    # d(x, y) = E(y) - E(x) with E NaN at level 3: the pairs' min is NaN
    def E(X):
        return np.where(X[:, 0] == 3.0, np.nan, -X[:, 0])

    kernel = row_form(lambda X, Y: E(Y) - E(X))
    kernel.potential = E
    d = PseudoDistance(name="nan-potential", fn=kernel, ambient_dim=1)
    A, B = FiniteCloud([1.0, 2.0]), FiniteCloud([3.0, 4.0])
    for make in (lambda: hausdorff(d, A, B), lambda: hausdorff(d, B, A),
                 lambda: point_set_distance(d, 1.0, B, orientation="to_point"),
                 lambda: domain_transfer_check(ObjectiveFn(fn=lambda x: 0.0), d, A, 1.0, B, 0.0)):
        with pytest.raises(ValueError, match="NaN is not an extended real"):
            make()
