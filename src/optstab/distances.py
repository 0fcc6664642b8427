"""Pseudo-distance functions: named, evaluable d(x, y) -> [-inf, inf].

No axioms are imposed by construction: a pseudo-distance may be negative,
infinite or asymmetric.  Each named instance documents in ``properties``
which additional axioms it satisfies; nothing reads or checks that.  What
``sets`` reads is a kernel's marks: its cdist ``metric``, or a row-form
``potential`` E with d(x, y) = E(y) - E(x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .extreal import call_rows, row_form
from .gauges import GaugeSet, minkowski_gauge

SYMMETRIC = "symmetric"
NONNEGATIVE = "nonnegative"
TRIANGLE = "triangle"
IDENTITY = "identity"  # d(x, x) = 0


@dataclass(frozen=True)
class PseudoDistance:
    name: str
    fn: Callable = field(repr=False)
    ambient_dim: Optional[int] = None
    properties: frozenset = frozenset()

    def __post_init__(self):
        if self.ambient_dim is not None and not self.ambient_dim >= 1:   # NaN fails too
            raise ValueError(f"ambient dimension {self.ambient_dim} is not positive")

    def check_dim(self, n: int) -> None:
        """Raise ValueError unless points of dimension n fit this distance."""
        if self.ambient_dim is not None and n != self.ambient_dim:
            raise ValueError(
                f"point of dim {n} passed to {self.name!r} with ambient dim {self.ambient_dim}")


def eval_distance(d: PseudoDistance, x, y) -> float:
    """d(x, y) as an extended real; raises on dimension mismatch."""
    return float(eval_distances(d, [x], [y])[0])


def eval_distances(d: PseudoDistance, xs, ys) -> np.ndarray:
    """d(x_i, y_i) for the n points of two sequences, with one dimension
    check, one ``call_rows`` and one NaN check."""
    n = len(xs)
    if not n:
        return np.zeros(0)
    if d.ambient_dim is not None:
        for P in (xs, ys):
            P = np.asarray(P, dtype=float)
            d.check_dim(1 if P.ndim == 1 else P.shape[-1])
    vals = call_rows(d.fn, n, xs, ys)
    if np.isnan(vals).any():
        raise ValueError("NaN is not an extended real")
    return vals


# The kernels of euclidean() and absolute(), in row form and marked with
# their cdist metrics, by which sets keys its closed forms, never by a name.
# The Euclidean one is one dot product of y - x with itself per row, as
# np.linalg.norm takes it for one point.  inf - inf gives NaN without a
# warning: ``eval_distances`` refuses it.
@row_form
def _euclidean(X, Y) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.sqrt(np.vecdot(Y - X, Y - X))


@row_form
def _absolute(X, Y) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.abs(Y[:, 0] - X[:, 0])


_euclidean.metric, _absolute.metric = "euclidean", "cityblock"


def euclidean(dim: Optional[int] = None) -> PseudoDistance:
    return PseudoDistance(
        name="euclidean",
        fn=_euclidean,
        ambient_dim=dim,
        properties=frozenset({SYMMETRIC, NONNEGATIVE, TRIANGLE, IDENTITY}),
    )


def absolute() -> PseudoDistance:
    return PseudoDistance(
        name="absolute",
        fn=_absolute,
        ambient_dim=1,
        properties=frozenset({SYMMETRIC, NONNEGATIVE, TRIANGLE, IDENTITY}),
    )


def binding_energy(n: int) -> float:
    """Hydrogen-like level energy E(n) = -13.6 / n**2 (eV)."""
    return -13.6 / float(n) ** 2


def energy_ladder() -> PseudoDistance:
    """d(x, y) = E(y) - E(x) on the energy levels N = {1, 2, ...}.

    The energy one invests to move an electron from level x to level y;
    negative values mean energy is gained.  Asymmetric (d(y,x) = -d(x,y))
    and satisfies d(x,x) = 0 and the (degenerate, additive) triangle
    equality, but is not nonnegative.  Its row-form kernel, marked with the
    potential E, gives E(y_i) - E(x_i) for the rows of two (n, 1) arrays of
    levels, each truncated to an integer; a level below 1 raises ValueError.
    """
    return PseudoDistance(
        name="energy-ladder",
        fn=_energy_gaps,
        ambient_dim=1,
        properties=frozenset({IDENTITY, TRIANGLE}),
    )


def _energy_levels(X) -> np.ndarray:
    n = np.trunc(X[:, 0])
    if not (n >= 1.0).all():
        raise ValueError("energy levels are the integers 1, 2, ...")
    with np.errstate(over="ignore"):    # past about 1.3e154, E is -0.0, correctly rounded
        return -13.6 / n ** 2           # binding_energy, per row


_energy_gaps = row_form(lambda X, Y: _energy_levels(Y) - _energy_levels(X))
_energy_gaps.potential = _energy_levels


def gauge_distance(C: GaugeSet, name: Optional[str] = None) -> PseudoDistance:
    """d(x, y) = M_C(y - x): the (possibly asymmetric) gauge pseudo-distance,
    in row form: ``fn(X, Y)`` gives the gauges of the rows of Y - X."""
    props = {NONNEGATIVE, TRIANGLE, IDENTITY}
    return PseudoDistance(
        name=name or f"gauge[{C.kind}]",
        fn=row_form(lambda X, Y: minkowski_gauge(C, np.asarray(Y, float) - np.asarray(X, float))),
        ambient_dim=C.dim,
        properties=frozenset(props),
    )
