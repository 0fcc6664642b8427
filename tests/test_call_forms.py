"""The argument forms a callable receives, on every path that calls one.

A callable not marked with ``row_form`` is called once per point, on the
point as the calling site holds it: a float64 scalar from a 1-D cloud, a
row from an (n, dim) array, a probe list's own items, the caller's own
argument at a single-point entry.  User callables are written against
these forms (``float(np.array([0.5]))`` is an error in NumPy 2.x, so a
scalar must not turn into a (1,) row), and a marked callable receives
float (n, dim) arrays, an empty batch included.
"""

import numpy as np

from optstab.distances import PseudoDistance, eval_distance
from optstab.extreal import row_form
from optstab.ladder import SmoothProblem, _verify_level, hessian_sup
from optstab.optima import ObjectiveFn, check_finite_stability, Lipschitz, inf_over, sup_over
from optstab.sets import (FiniteCloud, ImplicitSampled, IntervalUnion, asym_hausdorff, hausdorff,
                          point_set_distance)


def _form(a):
    """(type name, shape, dtype) of one argument; None for a non-array."""
    return (type(a).__name__, getattr(a, "shape", None), str(getattr(a, "dtype", None)))


def _recorder(value=0.0):
    """A per-point callable that records the form of its arguments."""
    forms = []

    def fn(*args):
        forms.append(tuple(_form(a) for a in args))
        return value
    return fn, forms


SCALAR = ("float64", (), "float64")


def _row(dim):
    return ("ndarray", (dim,), "float64")


def _objective_forms(A, **kw):
    fn, forms = _recorder()
    sup_over(ObjectiveFn(fn=fn), A, **kw)
    return set(forms)


def test_objective_argument_forms():
    assert _objective_forms(FiniteCloud([0.0, 1.0, 2.0])) == {(SCALAR,)}
    assert _objective_forms(FiniteCloud([[0.0], [1.0]])) == {(_row(1),)}
    assert _objective_forms(FiniteCloud([[0.0, 1.0], [1.0, 2.0]])) == {(_row(2),)}
    # a probe list passes its own items
    assert _objective_forms([0.5, (1.0,), np.array([2.0]), 3]) == {
        (("float", None, "None"),), (("tuple", None, "None"),),
        (("ndarray", (1,), "float64"),), (("int", None, "None"),)}
    # samples: an interval union's scalars, an implicit set's rows
    assert _objective_forms(IntervalUnion([(0.0, 1.0)]), budget=16) == {(SCALAR,)}
    disk = ImplicitSampled(member=row_form(lambda X: np.abs(X[:, 0]) <= 1.0),
                           sampler=lambda n, rg: rg.uniform(-2, 2, n), dim=1, witness=0.0)
    assert _objective_forms(disk, budget=16) == {(_row(1),)}


def test_objective_call_passes_the_raw_argument():
    fn, forms = _recorder(1.5)
    f = ObjectiveFn(fn=fn)
    assert (f([1.0]), f(2), f(np.float64(0.5))) == (1.5, 1.5, 1.5)
    assert forms == [(("list", None, "None"),), (("int", None, "None"),), (SCALAR,)]


def test_membership_argument_forms():
    member, forms = _recorder(True)
    S = ImplicitSampled(member=member, sampler=lambda n, rg: rg.uniform(-1, 1, n),
                        dim=1, witness=0.5)
    assert forms == [(("ndarray", (), "float64"),)]   # the witness, as given
    forms.clear()
    assert len(S.sample(5, np.random.default_rng(0))) == 6
    assert forms == [(_row(1),)] * 5
    member, forms = _recorder(True)
    S = ImplicitSampled(member=member, sampler=lambda n, rg: rg.uniform(-1, 1, (n, 2)),
                        dim=2, witness=[0.0, 0.0])
    S.sample(3, np.random.default_rng(0))
    assert forms == [(_row(2),)] * 4


def test_an_empty_batch_reaches_a_marked_callable_and_no_unmarked_one():
    seen = []

    @row_form
    def member(X):
        seen.append(_form(X))
        return np.ones(len(X), dtype=bool)
    S = ImplicitSampled(member=member, sampler=lambda n, rg: np.empty((0, 2)), dim=2,
                        witness=[0.0, 0.0])
    assert seen == [("ndarray", (1, 2), "float64")]   # the witness, as a row of one
    assert S.sample(4, np.random.default_rng(0)).shape == (1, 2)
    assert seen[1:] == [("ndarray", (0, 2), "float64")]
    unmarked, forms = _recorder(True)
    S = ImplicitSampled(member=unmarked, sampler=lambda n, rg: np.empty((0, 2)), dim=2,
                        witness=[0.0, 0.0])
    assert S.sample(4, np.random.default_rng(0)).shape == (1, 2)
    assert len(forms) == 1


def _distance_recorder():
    """An asymmetric per-point distance that records its argument forms and
    the pairs it is called on, in order."""
    forms, pairs = [], []

    def fn(x, y):
        forms.append((_form(x), _form(y)))
        pairs.append((np.ravel(x).tolist(), np.ravel(y).tolist()))
        return float(np.sum(np.asarray(y, float) - np.asarray(x, float)) ** 2
                     + 0.25 * np.sum(y))
    return PseudoDistance("recorded", fn), forms, pairs


def test_distance_argument_forms_and_pair_order():
    d, forms, pairs = _distance_recorder()
    A, B = FiniteCloud([0.0, 1.0]), FiniteCloud([2.0, 3.0, 5.0])
    value = asym_hausdorff(d, A, B).value
    assert set(forms) == {(SCALAR, SCALAR)}
    assert pairs == [([p], [q]) for p in (0.0, 1.0) for q in (2.0, 3.0, 5.0)]
    assert value == max(min((q - p) ** 2 + 0.25 * q for q in (2.0, 3.0, 5.0)) for p in (0.0, 1.0))
    forms.clear()
    pairs.clear()
    A2, B2 = FiniteCloud([[0.0, 1.0], [1.0, 0.0]]), FiniteCloud([[2.0, 2.0]])
    hausdorff(d, A2, B2)
    assert set(forms) == {(_row(2), _row(2))}
    assert pairs == [([0.0, 1.0], [2.0, 2.0]), ([1.0, 0.0], [2.0, 2.0]),
                     ([2.0, 2.0], [0.0, 1.0]), ([2.0, 2.0], [1.0, 0.0])]
    forms.clear()
    pairs.clear()
    # "to_point" measures d(a, x): the set's point comes first
    point_set_distance(d, 1.0, B, orientation="to_point")
    assert set(forms) == {(SCALAR, SCALAR)}
    assert pairs == [([q], [1.0]) for q in (2.0, 3.0, 5.0)]
    forms.clear()
    hausdorff(d, IntervalUnion([(0.0, 1.0)]), FiniteCloud([0.5]), budget=8)
    assert set(forms) == {(SCALAR, SCALAR)}


def test_eval_distance_passes_the_raw_arguments():
    d, forms, _ = _distance_recorder()
    eval_distance(d, 1.0, [2.0])
    eval_distance(d, np.array([0.0, 1.0]), (1.0, 1.0))
    assert forms == [(("float", None, "None"), ("list", None, "None")),
                     (_row(2), ("tuple", None, "None"))]


def test_grad_and_hess_norm_argument_forms():
    grads, hess = [], []

    def grad(x):
        grads.append(_form(x))
        return np.asarray(x, float) / 3.0

    def hess_norm(x):
        hess.append(_form(x))
        return float(np.dot(x, x))

    P = SmoothProblem(f=lambda x: 0.0, grad=grad, hess_norm=hess_norm, dim=2, y0=[0.0, 0.0])
    hessian_sup(P, 0.5, rng=np.random.default_rng(1))
    assert set(hess) == {_row(2)} and len(hess) > 1
    _verify_level(P, 0.5, 1.0, np.random.default_rng(2), n_pairs=20, inflation=1.0)
    assert set(grads) == {_row(2)} and len(grads) == 40


def test_the_extremes_of_a_sampled_set_under_a_per_point_objective():
    # sup and inf over one implicit set: the same per-point forms for both
    fn, forms = _recorder()
    f = ObjectiveFn(fn=lambda x: fn(x) + float(np.ravel(x)[0]), regularity=Lipschitz(1.0))
    disk = ImplicitSampled(member=lambda x: bool(abs(np.ravel(x)[0]) <= 1.0),
                           sampler=lambda n, rg: rg.uniform(-2, 2, n), dim=1, witness=0.0)
    A = FiniteCloud([0.0, 0.5])
    s, i = sup_over(f, disk, budget=16), inf_over(f, disk, budget=16)
    assert i.value <= s.value and {i.mode, s.mode} == {"sampled"}
    forms.clear()
    check_finite_stability(f, PseudoDistance("gap", lambda x, y: abs(float(np.ravel(y)[0])
                                                                      - float(np.ravel(x)[0]))),
                           [(A, disk)], budget=16)
    assert set(forms) == {(SCALAR,), (_row(1),)}
