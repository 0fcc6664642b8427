"""SUP/INF operators over set models and the stability verifiers.

``sup_over`` / ``inf_over`` are exact whenever the objective and the set
both carry closed-form structure (piecewise-linear objectives over interval
unions, instance-supplied exact hooks, finite clouds); otherwise they return
a sampled one-sided estimate flagged as such.

``check_finite_stability`` runs the finite-case transfer (uniform modulus or
Lipschitz) over supplied set pairs; ``check_infinite_escape`` runs the
infinite-case witness construction; both emit per-pair verdict tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .distances import PseudoDistance
from .extreal import INF, NEG_INF, call_one, call_rows, is_row_form, row_form, scale
from .sets import (DEFAULT_BUDGET, FiniteCloud, Interval, IntervalUnion,
                   SetModel, _endpoints, asym_hausdorff, hausdorff)

TOL_OPT = 1e-9


# ---------------------------------------------------------------------------
# objective functions and their regularity declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lipschitz:
    lam: float


@dataclass(frozen=True)
class UniformModulus:
    """A modulus eps -> delta(eps): d(x,y) < delta(eps) implies |f(x)-f(y)| < eps."""
    delta: Callable[[float], float] = field(repr=False)


@dataclass(frozen=True)
class ContinuousOnly:
    pass


@dataclass(frozen=True)
class LinearPiece:
    """Linear piece on [lo, hi], which may reach +/-inf.  Optional endpoint
    anchors ``val_lo`` / ``val_hi`` pin the exact values at the breakpoints
    (float evaluation of slope*t + intercept can miss a breakpoint value by
    rounding).  A NaN field or lo > hi raises ValueError."""
    lo: float
    hi: float
    slope: float
    intercept: float
    val_lo: Optional[float] = None
    val_hi: Optional[float] = None

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"linear piece [{self.lo}, {self.hi}] is empty or NaN")
        if any(v != v for v in (self.slope, self.intercept, self.val_lo, self.val_hi)):
            raise ValueError(f"linear piece on [{self.lo}, {self.hi}] has a NaN coefficient")

    @staticmethod
    def from_anchors(lo: float, hi: float, val_lo: float, val_hi: float) -> "LinearPiece":
        """The piece through (lo, val_lo) and (hi, val_hi).  Finite ends
        whose width overflows are halved with the anchors, exactly for
        normal floats.  ValueError when finite ends and anchors overflow the
        slope or intercept (a rise too steep for a float, as on a piece
        1e-311 wide): its values between the anchors would be wrong."""
        h = 0.5 if math.isinf(hi - lo) and math.isfinite(lo) and math.isfinite(hi) else 1.0
        slope = 0.0 if hi == lo else (h * val_hi - h * val_lo) / (h * hi - h * lo)
        intercept = val_lo - _times(slope, lo)
        if (not (math.isfinite(slope) and math.isfinite(intercept))
                and all(map(math.isfinite, (lo, hi, val_lo, val_hi)))):
            raise ValueError(f"linear piece on [{lo}, {hi}] through {val_lo} and "
                             f"{val_hi} has an infinite slope or intercept")
        return LinearPiece(lo, hi, slope, intercept, val_lo, val_hi)


def _times(a: float, t: float) -> float:
    """a * t with 0 * (+/-inf) = (+/-inf) * 0 = 0, for a factor of either
    sign (``scale`` takes nonnegative ones); IEEE, signed zeros included,
    everywhere else."""
    p = a * t
    return 0.0 if math.isnan(p) and (a == 0.0 or t == 0.0) else p


class _PieceTable:
    """Pieces as arrays in their given order, each anchor val_lo / val_hi with
    the t at_lo / at_hi where it applies (NaN, which no t equals, if none); in
    order of lo, the starts, their reach cummax(hi) and the runs [run_lo,
    run_hi] of pieces that overlap or touch, one of which holds a covered interval."""

    def __init__(self, pieces: Sequence[LinearPiece]):
        cols = np.array([(p.lo, p.hi, p.slope, p.intercept,
                          *((math.nan, 0.0) if p.val_lo is None else (p.lo, p.val_lo)),
                          *((math.nan, 0.0) if p.val_hi is None else (p.hi, p.val_hi)))
                         for p in pieces], dtype=float).reshape(-1, 8).T.copy()
        (self.lo, self.hi, self.slope, self.intercept,
         self.at_lo, self.val_lo, self.at_hi, self.val_hi) = cols
        self.order = np.argsort(self.lo, kind="stable")
        self.starts, self.reach = self.lo[self.order], np.maximum.accumulate(self.hi[self.order])
        n = len(self.starts)
        new_run = np.r_[True, self.starts[1:] > self.reach[:-1]][:n]
        self.run_lo, self.run_hi = self.starts[new_run], self.reach[np.r_[new_run[1:], True][:n]]

    def values(self, k: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Piece k at t, elementwise: its anchor at an anchored end, else
        slope t + intercept.  No slope and no t is NaN, so a NaN product is
        0 * (+/-inf) = 0."""
        with np.errstate(invalid="ignore"):
            st = self.slope[k] * t
            st[st != st] = 0.0
            v = st + self.intercept[k]
        v = np.where(t == self.at_hi[k], self.val_hi[k], v)
        return np.where(t == self.at_lo[k], self.val_lo[k], v)

    def rows(self, X) -> np.ndarray:
        """At each row t of X (n, 1), the value of the first piece in order
        of lo that holds t: the first piece whose reach is >= t holds t if it
        starts <= t."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != 1:
            raise ValueError(f"a piecewise-linear objective takes rows of width 1, not {X.shape}")
        t = X[:, 0]
        i = self.reach.searchsorted(t, "left")
        if (i >= self.starts.searchsorted(t, "right")).any():
            raise ValueError("a point is not covered by the piecewise descriptor")
        return self.values(self.order[i], t)


@dataclass(frozen=True)
class ObjectiveFn:
    fn: Callable = field(repr=False)
    regularity: object = ContinuousOnly()
    pieces: Optional[Sequence[LinearPiece]] = None
    exact_sup: Optional[Callable[[SetModel], Optional[float]]] = field(default=None, repr=False)
    exact_inf: Optional[Callable[[SetModel], Optional[float]]] = field(default=None, repr=False)
    bounded_below: bool = False
    name: str = "f"
    table: Optional[_PieceTable] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "table", None if self.pieces is None else _PieceTable(self.pieces))

    def __call__(self, x) -> float:
        return float(call_one(self.fn, x))

    def negated(self) -> "ObjectiveFn":
        pieces = None if self.pieces is None else tuple(
            LinearPiece(p.lo, p.hi, -p.slope, -p.intercept,
                        _neg_or_none(p.val_lo), _neg_or_none(p.val_hi)) for p in self.pieces)
        return ObjectiveFn(
            fn=(row_form(lambda X: -np.asarray(self.fn(X), dtype=float))
                if is_row_form(self.fn) else lambda x: -float(self.fn(x))),
            regularity=self.regularity,
            pieces=pieces,
            exact_sup=(None if self.exact_inf is None
                       else lambda A: _neg_or_none(self.exact_inf(A))),
            exact_inf=(None if self.exact_sup is None
                       else lambda A: _neg_or_none(self.exact_sup(A))),
            name=f"-{self.name}",
        )


def _neg_or_none(v):
    return None if v is None else -v


def piecewise_linear_objective(pieces: Sequence[LinearPiece], regularity=None,
                               name: str = "f") -> ObjectiveFn:
    """Without a declared regularity, Lipschitz(max |slope|) if the pieces
    tile one interval and neighbours agree (anchors included) where they
    meet, and ContinuousOnly() if the table jumps."""
    pieces = tuple(sorted(pieces, key=lambda p: p.lo))
    if regularity is None:
        tab, k = _PieceTable(pieces), np.arange(len(pieces))
        joined = (np.array_equal(tab.hi[:-1], tab.lo[1:]) and np.array_equal(
            tab.values(k[:-1], tab.hi[:-1]), tab.values(k[1:], tab.lo[1:])))
        regularity = Lipschitz(max(abs(p.slope) for p in pieces)) if joined else ContinuousOnly()
    f = ObjectiveFn(fn=row_form(lambda X: f.table.rows(X)),
                    regularity=regularity, pieces=pieces, name=name)
    return f


@dataclass(frozen=True)
class OptValue:
    value: float
    witness: Optional[object] = None
    mode: str = "exact"


def _piecewise_candidates(tab: _PieceTable, A: IntervalUnion):
    """The values of a piecewise-linear objective's table at the ends t of
    each (interval, piece) overlap of an interval union, in (interval,
    piece, lo-then-hi) order, and the function j -> t_j (a float): every
    extreme is attained among them, and the first one gives the witness.
    The intervals a piece meets (hi >= p.lo and lo <= p.hi) are one run of
    A's sorted endpoint arrays.  A NaN value raises ValueError."""
    lo, hi = _endpoints(A)
    r = np.searchsorted(tab.run_lo, lo, "right") - 1   # the run each interval starts in
    if not len(tab.run_lo) or not np.all((r >= 0) & (hi <= tab.run_hi[np.maximum(r, 0)])):
        raise ValueError("piecewise descriptor does not cover the interval union")
    first = np.searchsorted(hi, tab.lo, "left")
    count = np.maximum(np.searchsorted(lo, tab.hi, "right") - first, 0)
    k = np.repeat(np.arange(len(count)), count)
    i = np.arange(len(k)) - np.repeat(np.cumsum(count) - count - first, count)
    order = np.lexsort((k, i))
    i, k = i[order], k[order]
    # max(iv.lo, p.lo) and min(iv.hi, p.hi) as Python picks them, signed zeros included
    t_lo = np.where(tab.lo[k] > lo[i], tab.lo[k], lo[i])
    t_hi = np.where(tab.hi[k] < hi[i], tab.hi[k], hi[i])
    t = np.stack([t_lo, t_hi], axis=1).ravel()
    v = tab.values(np.repeat(k, 2), t)
    if np.isnan(v).any():
        raise ValueError("a piece of the objective is NaN on the interval union")
    return v, t.item


def _point_values(f: ObjectiveFn, pts) -> np.ndarray:
    """f at each point (``call_rows``).  A NaN value raises ValueError."""
    vals = call_rows(f.fn, len(pts), pts)
    if np.isnan(vals).any():
        raise ValueError(f"{f.name} is NaN on a point of the set")
    return vals


def _extreme(f: ObjectiveFn, A, want_max: bool, budget: int,
             rng: Optional[np.random.Generator], passes: dict) -> OptValue:
    """SUP_f(A) if ``want_max`` else INF_f(A): exact on probe lists, finite
    clouds, exact hooks and piecewise objectives over interval unions, and
    a sampled estimate otherwise.  The objective pass over a set (its points,
    its piece table's candidates, or its ``default_rng(0)`` draw when ``rng``
    is None) is kept in ``passes`` under id(A), so the other extreme over A
    reads it instead of calling f again; a set sampled from a given ``rng``
    is drawn on every call.  A NaN objective value, a NaN from an exact
    hook, or pieces that do not cover the closure of every interval of an
    interval union raise ValueError."""
    key = id(A)
    if isinstance(A, (list, tuple, np.ndarray, FiniteCloud)):
        if key not in passes:
            pts = A.points if isinstance(A, FiniteCloud) else list(A)
            if not len(pts):
                return OptValue(NEG_INF if want_max else INF, None, "exact")
            passes[key] = _point_values(f, pts), pts.__getitem__, "exact"
    else:
        hook = f.exact_sup if want_max else f.exact_inf
        v = hook(A) if hook is not None else None
        if v is not None:
            v = float(v)
            if math.isnan(v):
                raise ValueError(f"the exact hook of {f.name} returned NaN")
            return OptValue(v, None, "exact")
        if f.table is None or not isinstance(A, IntervalUnion):
            if rng is not None or key not in passes:
                pts = A.sample(budget, rng if rng is not None else np.random.default_rng(0))
                passes[key] = _point_values(f, pts), pts.__getitem__, "sampled"
        elif key not in passes:
            passes[key] = *_piecewise_candidates(f.table, A), "exact"
    vals, witness, mode = passes[key]
    return _best(vals, witness, want_max, mode)


def _best(vals: np.ndarray, witness: Callable, want_max: bool, mode: str) -> OptValue:
    """The first largest (smallest, unless ``want_max``) value and its witness."""
    j = int(np.argmax(vals) if want_max else np.argmin(vals))
    return OptValue(float(vals[j]), witness(j), mode)


def sup_over(f: ObjectiveFn, A, budget: int = DEFAULT_BUDGET,
             rng: Optional[np.random.Generator] = None) -> OptValue:
    """SUP_f(A) with the convention sup over an empty probe list = -inf."""
    return _extreme(f, A, True, budget, rng, {})


def inf_over(f: ObjectiveFn, A, budget: int = DEFAULT_BUDGET,
             rng: Optional[np.random.Generator] = None) -> OptValue:
    """INF_f(A) with the convention inf over an empty probe list = +inf."""
    return _extreme(f, A, False, budget, rng, {})


# ---------------------------------------------------------------------------
# stability verifiers
# ---------------------------------------------------------------------------

@dataclass
class VerdictReport:
    columns: List[str]
    rows: List[dict]

    @property
    def passed(self) -> bool:
        return all(r.get("verdict") in ("pass", "skipped") for r in self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for r in self.rows:
                fh.write(",".join(_fmt(r.get(c)) for c in self.columns) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def check_finite_stability(f: ObjectiveFn, d: PseudoDistance,
                           pairs: Sequence, eps: Optional[float] = None,
                           tol: float = TOL_OPT, diagnostic: bool = False,
                           budget: int = DEFAULT_BUDGET,
                           rng: Optional[np.random.Generator] = None) -> VerdictReport:
    """Finite-case stability transfer over supplied (A, A') pairs.

    Uniform regularity: whenever D_H(A, A') < delta(eps/2), both optimal
    values move by less than eps.  Lipschitz regularity: the optimal values
    move by at most Lambda * D_H(A, A') + tol.  ``diagnostic=True`` allows a
    continuous-only objective and records the violations instead of refusing
    (used to demonstrate the necessity of the hypotheses).
    """
    reg = f.regularity
    if isinstance(reg, ContinuousOnly) and not diagnostic:
        raise ValueError("hypotheses unmet: objective is continuous-only")
    if isinstance(reg, UniformModulus) and eps is None and not diagnostic:
        raise ValueError("uniform regularity requires a target eps")

    columns = ["pair_id", "D_H", "sup_A", "sup_Ap", "inf_A", "inf_Ap",
               "delta_used", "bound", "slack", "verdict"]
    rows = []
    for i, (A, Ap) in enumerate(pairs):
        dh = hausdorff(d, A, Ap, budget=budget, rng=rng).value
        passes = {}   # one objective pass per exact set serves both extremes
        sA, sAp, iA, iAp = (_extreme(f, S, want, budget, rng, passes).value
                            for want in (True, False) for S in (A, Ap))
        if not (math.isfinite(sA) and math.isfinite(iA)):
            raise ValueError(f"pair {i}: A is outside dom(SUP_f)/dom(INF_f)")
        dsup = abs(sA - sAp)
        dinf = abs(iA - iAp)
        row = dict(pair_id=i, D_H=dh, sup_A=sA, sup_Ap=sAp, inf_A=iA, inf_Ap=iAp)
        if isinstance(reg, Lipschitz):
            if dh == NEG_INF and reg.lam > 0:
                raise ValueError(
                    f"pair {i}: D_H = -inf is inconsistent with a Lipschitz objective")
            bound = scale(reg.lam, dh) + tol
            slack = bound - max(dsup, dinf)
            row.update(delta_used="", bound=bound, slack=slack,
                       verdict="pass" if slack >= 0 else "fail")
        elif isinstance(reg, UniformModulus):
            delta = reg.delta(eps / 2.0)
            if dh < delta:
                ok = dsup < eps and dinf < eps
                row.update(delta_used=delta, bound=eps, slack=eps - max(dsup, dinf),
                           verdict="pass" if ok else "fail")
            else:
                row.update(delta_used=delta, bound=eps, slack=INF, verdict="skipped")
        else:  # diagnostic mode on a continuous-only objective
            row.update(delta_used="", bound="", slack=-max(dsup, dinf),
                       verdict="violation" if max(dsup, dinf) > 0 else "pass")
        rows.append(row)
    return VerdictReport(columns, rows)


def check_infinite_escape(f: ObjectiveFn, d: PseudoDistance, A: SetModel,
                          mu: float, candidates: Sequence[SetModel],
                          witness_seq: Callable[[float], object],
                          eps: float = 1.0,
                          delta_at: Optional[Callable[[object, float], float]] = None,
                          mode: str = "sup",
                          budget: int = DEFAULT_BUDGET,
                          rng: Optional[np.random.Generator] = None) -> dict:
    """Infinite-case escape verification for SUP_f(A) = +inf (or INF = -inf).

    ``witness_seq(level)`` must return a point of A with f > level (the
    closed-form unboundedness certificate); sampling is never used to prove
    unboundedness.  Returns the constructed delta and per-candidate verdicts.
    """
    if mode == "inf":
        neg = check_infinite_escape(f.negated(), d, A, -mu, candidates,
                                    witness_seq=lambda lv: witness_seq(-lv),
                                    eps=eps, delta_at=delta_at, mode="sup",
                                    budget=budget, rng=rng)
        neg["mode"] = "inf"
        return neg

    a = witness_seq(mu + eps)
    fa = f(a)
    if not fa > mu + eps:
        raise ValueError("unboundedness certificate failed: f(witness) <= mu + eps")

    reg = f.regularity
    if isinstance(reg, Lipschitz) and reg.lam > 0:
        delta = eps / reg.lam
    elif isinstance(reg, UniformModulus):
        delta = reg.delta(eps)
    elif delta_at is not None:
        delta = delta_at(a, eps)
    else:
        raise ValueError("no continuity information at the witness point")

    rows = []
    for i, Ap in enumerate(candidates):
        dasy = asym_hausdorff(d, A, Ap, budget=budget, rng=rng).value
        if dasy < delta:
            s = sup_over(f, Ap, budget=budget, rng=rng)
            verdict = "pass" if s.value > mu else "fail"
            rows.append(dict(candidate=i, D_asyH=dasy, sup=s.value, verdict=verdict))
        else:
            rows.append(dict(candidate=i, D_asyH=dasy, sup="", verdict="skipped"))
    return dict(mode="sup", mu=mu, eps=eps, witness=a, f_witness=fa,
                delta=delta, rows=rows,
                passed=all(r["verdict"] in ("pass", "skipped") for r in rows))


def domain_transfer_check(f: ObjectiveFn, d: PseudoDistance, A: SetModel,
                          delta: float, Ap: SetModel, eps: float,
                          budget: int = DEFAULT_BUDGET,
                          rng: Optional[np.random.Generator] = None) -> bool:
    """SUP_f(A') <= SUP_f(A) + eps and A' stays in dom(SUP_f) whenever
    D_H(A, A') < delta (with delta associated to eps by f's modulus)."""
    sA = sup_over(f, A, budget=budget, rng=rng).value
    if not math.isfinite(sA):
        raise ValueError("hypotheses unmet: A is outside dom(SUP_f)")
    dh = hausdorff(d, A, Ap, budget=budget, rng=rng).value
    if not dh < delta:
        raise ValueError(f"hypotheses unmet: D_H = {dh} >= delta = {delta}")
    sAp = sup_over(f, Ap, budget=budget, rng=rng).value
    return sAp <= sA + eps and sAp > NEG_INF


def _argmin_abs_sin(lo: float, hi: float) -> list:
    """Exact minimizer set of |sin| over [lo, hi] (closed-form piecewise model)."""
    k_lo = math.ceil(lo / math.pi)
    k_hi = math.floor(hi / math.pi)
    zeros = [k * math.pi for k in range(k_lo, k_hi + 1)]
    if zeros:
        return zeros
    return [lo] if abs(math.sin(lo)) <= abs(math.sin(hi)) else [hi]


def minimizer_set_instability_demo(eps: float = 0.1) -> dict:
    """Fixed instance on X = [-20, 20]: argmin sets of |sin| over [0, pi]
    versus [-eps, pi - eps] are Hausdorff-distance pi apart even though the
    constraint sets are only eps apart; the asymmetric distance is 0."""
    from .distances import absolute
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    d = absolute()
    A = IntervalUnion([Interval(0.0, math.pi)])
    Ape = IntervalUnion([Interval(-eps, math.pi - eps)])
    argmin_A = FiniteCloud(_argmin_abs_sin(0.0, math.pi))
    argmin_Ape = FiniteCloud(_argmin_abs_sin(-eps, math.pi - eps))
    return dict(
        eps=eps,
        argmin_A=sorted(float(v) for v in np.atleast_1d(argmin_A.points)),
        argmin_Ape=sorted(float(v) for v in np.atleast_1d(argmin_Ape.points)),
        d_h_sets=hausdorff(d, Ape, A).value,
        d_h_argmins=hausdorff(d, argmin_Ape, argmin_A).value,
        d_asy_argmins=asym_hausdorff(d, argmin_Ape, argmin_A).value,
    )
