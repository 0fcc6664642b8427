"""Pseudo-distance functions: named, evaluable d(x, y) -> [-inf, inf].

No axioms are imposed by construction: a pseudo-distance may be negative,
infinite or asymmetric.  Each named instance documents in ``properties``
which additional axioms it satisfies.  The declaration is documentation:
no verifier reads it, and nothing here checks it.
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


def _check_dim(d: PseudoDistance, n: int) -> None:
    if d.ambient_dim is not None and n != d.ambient_dim:
        raise ValueError(
            f"point of dim {n} passed to {d.name!r} with ambient dim {d.ambient_dim}")


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
            _check_dim(d, 1 if P.ndim == 1 else P.shape[-1])
    vals = call_rows(d.fn, n, xs, ys)
    if np.isnan(vals).any():
        raise ValueError("NaN is not an extended real")
    return vals


# The kernels of euclidean() and absolute(), in row form: set closed forms
# are keyed by these function objects, never by a distance's name.  The
# Euclidean one is one dot product of y - x with itself per row, as
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
    equality, but is not nonnegative.  In row form: ``fn(X, Y)`` gives
    E(y_i) - E(x_i) for the rows of two (n, 1) arrays of levels, each level
    truncated to an integer; a level below 1 raises ValueError.
    """
    return PseudoDistance(
        name="energy-ladder",
        fn=row_form(_energy_gaps),
        ambient_dim=1,
        properties=frozenset({IDENTITY, TRIANGLE}),
    )


def _energy_gaps(X, Y) -> np.ndarray:
    nx, ny = np.trunc(X[:, 0]), np.trunc(Y[:, 0])
    if not (nx >= 1.0).all() or not (ny >= 1.0).all():
        raise ValueError("energy levels are the integers 1, 2, ...")
    return -13.6 / ny ** 2 - (-13.6 / nx ** 2)      # binding_energy, per row


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
