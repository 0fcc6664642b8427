"""Pseudo-distance functions: named, evaluable d(x, y) -> [-inf, inf].

No axioms are imposed by construction: a pseudo-distance may be negative,
infinite or asymmetric.  Each named instance documents which additional
properties it actually satisfies; those claims are spot-checkable on
sampled triples via :func:`check_documented_properties`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .extreal import INF, call_one, check_extended_real, row_form
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


def _check_dim(d: PseudoDistance, n: int) -> None:
    if d.ambient_dim is not None and n != d.ambient_dim:
        raise ValueError(
            f"point of dim {n} passed to {d.name!r} with ambient dim {d.ambient_dim}")


def eval_distance(d: PseudoDistance, x, y) -> float:
    """d(x, y) as an extended real; raises on dimension mismatch."""
    if d.ambient_dim is not None:
        for p in (x, y):
            p = np.asarray(p, dtype=float)
            _check_dim(d, 1 if p.ndim == 0 else p.shape[-1])
    return check_extended_real(call_one(d.fn, x, y))


# The kernels of euclidean() and absolute(): set closed forms are keyed by
# these function objects, never by a distance's name.
def _euclidean(x, y) -> float:
    return float(np.linalg.norm(np.asarray(y, float) - np.asarray(x, float)))


def _absolute(x, y) -> float:
    return abs(float(np.squeeze(np.asarray(y, float)))
               - float(np.squeeze(np.asarray(x, float))))


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


def constant_infinite(dim: Optional[int] = None) -> PseudoDistance:
    """d = +inf everywhere: the degenerate pseudo-distance from the theory."""
    return PseudoDistance(
        name="constant-inf",
        fn=lambda x, y: INF,
        ambient_dim=dim,
        properties=frozenset({SYMMETRIC, NONNEGATIVE, TRIANGLE}),
    )


def check_documented_properties(d: PseudoDistance, triples, tol: float = 1e-12) -> dict:
    """Spot-check the documented properties of d on sampled (x, y, z) triples.

    Returns a dict property -> bool (True = no violation observed).
    """
    results = {p: True for p in d.properties}
    for (x, y, z) in triples:
        dxy = eval_distance(d, x, y)
        dyx = eval_distance(d, y, x)
        if SYMMETRIC in results and abs(dxy - dyx) > tol and dxy != dyx:
            results[SYMMETRIC] = False
        if NONNEGATIVE in results and dxy < -tol:
            results[NONNEGATIVE] = False
        if IDENTITY in results and abs(eval_distance(d, x, x)) > tol:
            results[IDENTITY] = False
        if TRIANGLE in results:
            dxz = eval_distance(d, x, z)
            dzy = eval_distance(d, z, y)
            if dxz + dzy < dxy - tol:
                results[TRIANGLE] = False
    return results
