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
    rounding).  A NaN endpoint or lo > hi raises ValueError."""
    lo: float
    hi: float
    slope: float
    intercept: float
    val_lo: Optional[float] = None
    val_hi: Optional[float] = None

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"linear piece [{self.lo}, {self.hi}] is empty or NaN")

    def value(self, t: float) -> float:
        if self.val_lo is not None and t == self.lo:
            return self.val_lo
        if self.val_hi is not None and t == self.hi:
            return self.val_hi
        st = self.slope * t   # NaN only for 0 * (+/-inf) or a NaN slope
        return (st if st == st else _times(self.slope, t)) + self.intercept

    @staticmethod
    def from_anchors(lo: float, hi: float, val_lo: float, val_hi: float) -> "LinearPiece":
        slope = 0.0 if hi == lo else (val_hi - val_lo) / (hi - lo)
        return LinearPiece(lo, hi, slope, val_lo - _times(slope, lo), val_lo, val_hi)


def _times(a: float, t: float) -> float:
    """a * t with 0 * (+/-inf) = (+/-inf) * 0 = 0, for a factor of either
    sign (``scale`` takes nonnegative ones); IEEE, signed zeros included,
    everywhere else."""
    p = a * t
    return 0.0 if math.isnan(p) and (a == 0.0 or t == 0.0) else p


def piecewise_eval(pieces: Sequence[LinearPiece], t: float) -> float:
    for p in pieces:
        if p.lo <= t <= p.hi:
            return p.value(t)
    raise ValueError(f"t={t} not covered by the piecewise descriptor")


@dataclass(frozen=True)
class ObjectiveFn:
    fn: Callable = field(repr=False)
    regularity: object = ContinuousOnly()
    pieces: Optional[Sequence[LinearPiece]] = None
    exact_sup: Optional[Callable[[SetModel], Optional[float]]] = field(default=None, repr=False)
    exact_inf: Optional[Callable[[SetModel], Optional[float]]] = field(default=None, repr=False)
    bounded_below: bool = False
    name: str = "f"

    def __call__(self, x) -> float:
        if is_row_form(self.fn):
            return float(call_one(self.fn, x))
        return float(self.fn(x))

    def negated(self) -> "ObjectiveFn":
        pieces = None
        if self.pieces is not None:
            pieces = tuple(
                LinearPiece(p.lo, p.hi, -p.slope, -p.intercept,
                            None if p.val_lo is None else -p.val_lo,
                            None if p.val_hi is None else -p.val_hi)
                for p in self.pieces)
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
    pieces = tuple(sorted(pieces, key=lambda p: p.lo))
    if regularity is None:
        regularity = Lipschitz(max(abs(p.slope) for p in pieces))
    return ObjectiveFn(fn=lambda t: piecewise_eval(pieces, float(t)),
                       regularity=regularity, pieces=pieces, name=name)


@dataclass(frozen=True)
class OptValue:
    value: float
    witness: Optional[object] = None
    mode: str = "exact"


def _covers(p_lo: np.ndarray, p_hi: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the closed pieces [p_lo, p_hi] cover every closed interval
    [lo, hi]: the pieces, sorted by lo, are merged into runs that each reach
    as far as their longest piece, and each interval must lie in one run."""
    ok = p_lo <= p_hi
    if not ok.any():
        return False
    order = np.argsort(p_lo[ok])
    starts, reach = p_lo[ok][order], np.maximum.accumulate(p_hi[ok][order])
    new_run = np.concatenate([[True], starts[1:] > reach[:-1]])
    run_lo, run_hi = starts[new_run], reach[np.append(new_run[1:], True)]
    r = np.searchsorted(run_lo, lo, "right") - 1
    return bool(np.all((r >= 0) & (hi <= run_hi[np.maximum(r, 0)])))


def _piecewise_extreme(pieces: Sequence[LinearPiece], A: IntervalUnion, want_max: bool):
    """Extreme value of a piecewise-linear objective over an interval union,
    at the ends of each (interval, piece) overlap.  The intervals a piece
    meets (hi >= p.lo and lo <= p.hi) are one run of A's sorted endpoint
    arrays, found by binary search; the first strict improvement in
    (interval, piece, lo-then-hi) order gives the witness."""
    lo, hi = _endpoints(A)
    p_lo = np.array([p.lo for p in pieces], dtype=float)
    p_hi = np.array([p.hi for p in pieces], dtype=float)
    if not _covers(p_lo, p_hi, lo, hi):
        raise ValueError("piecewise descriptor does not cover the interval union")
    first = np.searchsorted(hi, p_lo, "left")
    count = np.maximum(np.searchsorted(lo, p_hi, "right") - first, 0)
    k = np.repeat(np.arange(len(pieces)), count)
    i = np.arange(len(k)) - np.repeat(np.cumsum(count) - count - first, count)
    order = np.lexsort((k, i))
    best = NEG_INF if want_max else INF
    witness = None
    for ii, kk in zip(i[order].tolist(), k[order].tolist()):
        iv, p = A.intervals[ii], pieces[kk]
        t_lo, t_hi = max(iv.lo, p.lo), min(iv.hi, p.hi)
        if t_lo > t_hi:
            continue
        for t in (t_lo, t_hi):
            v = p.value(t)
            if (want_max and v > best) or (not want_max and v < best):
                best, witness = v, t
    if witness is None:
        raise ValueError("piecewise descriptor does not cover the interval union")
    return best, witness


def _extreme(f: ObjectiveFn, A, budget: int, rng: Optional[np.random.Generator],
             want_max: bool) -> OptValue:
    """SUP_f(A) if ``want_max`` else INF_f(A): exact on probe lists, finite
    clouds, exact hooks and piecewise objectives over interval unions, and
    a sampled estimate otherwise.  A row-form objective is called once on
    all the points, any other once per point.  A NaN objective value, a NaN
    from an exact hook, or pieces that do not cover the closure of every
    interval of an interval union raise ValueError."""
    pick = np.argmax if want_max else np.argmin
    mode = "exact"
    if isinstance(A, (list, tuple, np.ndarray)):
        pts = list(A)
        if not pts:
            return OptValue(NEG_INF if want_max else INF, None, "exact")
    elif isinstance(A, FiniteCloud):
        pts = A.points
    else:
        hook = f.exact_sup if want_max else f.exact_inf
        v = hook(A) if hook is not None else None
        if v is not None:
            v = float(v)
            if math.isnan(v):
                raise ValueError(f"the exact hook of {f.name} returned NaN")
            return OptValue(v, None, "exact")
        if f.pieces is not None and isinstance(A, IntervalUnion):
            v, w = _piecewise_extreme(f.pieces, A, want_max)
            return OptValue(v, w, "exact")
        rng = rng if rng is not None else np.random.default_rng(0)
        pts, mode = A.sample(budget, rng), "sampled"
    if is_row_form(f.fn):
        vals = call_rows(f.fn, len(pts), np.asarray(pts, dtype=float).reshape(len(pts), -1))
    else:
        vals = np.asarray([float(f.fn(p)) for p in pts])
    if np.isnan(vals).any():
        raise ValueError(f"{f.name} is NaN on a point of the set")
    i = int(pick(vals))
    return OptValue(float(vals[i]), pts[i], mode)


def sup_over(f: ObjectiveFn, A, budget: int = DEFAULT_BUDGET,
             rng: Optional[np.random.Generator] = None) -> OptValue:
    """SUP_f(A) with the convention sup over an empty probe list = -inf."""
    return _extreme(f, A, budget, rng, want_max=True)


def inf_over(f: ObjectiveFn, A, budget: int = DEFAULT_BUDGET,
             rng: Optional[np.random.Generator] = None) -> OptValue:
    """INF_f(A) with the convention inf over an empty probe list = +inf."""
    return _extreme(f, A, budget, rng, want_max=False)


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
        sA = sup_over(f, A, budget=budget, rng=rng).value
        sAp = sup_over(f, Ap, budget=budget, rng=rng).value
        iA = inf_over(f, A, budget=budget, rng=rng).value
        iAp = inf_over(f, Ap, budget=budget, rng=rng).value
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
