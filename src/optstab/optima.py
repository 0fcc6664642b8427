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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .distances import PseudoDistance
from .extreal import (INF, NEG_INF, call_one, call_rows, check_extended_real, is_row_form,
                      row_form, scale)
from .sets import (DEFAULT_BUDGET, FiniteCloud, Interval, IntervalUnion, SetModel, _asym,
                   _draws, _endpoints, _hausdorff, _report, _tile_rows, asym_hausdorff,
                   hausdorff)

TOL_OPT = 1e-9


# ---------------------------------------------------------------------------
# objective functions and their regularity declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lipschitz:
    """|f(x) - f(y)| <= lam d(x, y); lam = inf is legal, NaN or lam < 0 raises."""
    lam: float

    def __post_init__(self):
        if not self.lam >= 0:   # NaN fails lam >= 0
            raise ValueError(f"Lipschitz constant must be >= 0, not {self.lam}")


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
        if (self.slope != self.slope or self.intercept != self.intercept   # NaN != NaN
                or self.val_lo != self.val_lo or self.val_hi != self.val_hi):
            raise ValueError(f"linear piece on [{self.lo}, {self.hi}] has a NaN coefficient")

    @staticmethod
    def from_anchors(lo: float, hi: float, val_lo: float, val_hi: float) -> "LinearPiece":
        """The piece through (lo, val_lo) and (hi, val_hi): ``from_anchor_columns``
        on one entry, so by its rules and with its refusal, but with no
        RuntimeWarning.  The fields are Python floats."""
        with np.errstate(all="ignore"):   # as Python-float arithmetic, which never warns
            return LinearPiece.from_anchor_columns(
                *np.array([[lo], [hi], [val_lo], [val_hi]], dtype=float))[0]

    @staticmethod
    def from_anchor_columns(lo: np.ndarray, hi: np.ndarray, val_lo: np.ndarray,
                            val_hi: np.ndarray) -> List["LinearPiece"]:
        """The piece through (lo, val_lo) and (hi, val_hi) at each entry of
        four float arrays, by whole-array steps.  Finite ends whose width
        overflows are halved with the anchors, exactly for normal floats; a
        zero-width piece has slope 0; 0 * (+/-inf) is 0 in the intercept.
        ValueError when finite ends and anchors overflow the slope or
        intercept (a rise too steep for a float, as on a piece 1e-311
        wide): its values between the anchors would be wrong.  The steps
        raise numpy's warnings, as on np.float64 scalars.  The fields are
        Python floats."""
        h = np.where(np.isinf(hi - lo) & np.isfinite(lo) & np.isfinite(hi), 0.5, 1.0)
        w = np.flatnonzero(hi != lo)   # a zero-width piece keeps slope 0
        slope, hw = np.zeros(len(h)), h[w]
        slope[w] = (hw * val_hi[w] - hw * val_lo[w]) / (hw * hi[w] - hw * lo[w])
        st = slope * lo
        st[np.isnan(st) & ((slope == 0.0) | (lo == 0.0))] = 0.0   # 0 * (+/-inf) = 0
        intercept = val_lo - st
        finite = np.isfinite(slope) & np.isfinite(intercept)
        if not finite.all():
            ends = np.isfinite(lo) & np.isfinite(hi) & np.isfinite(val_lo) & np.isfinite(val_hi)
            bad = ~finite & ends
            if bad.any():
                i = bad.argmax()
                raise ValueError(f"linear piece on [{lo[i]}, {hi[i]}] through {val_lo[i]} "
                                 f"and {val_hi[i]} has an infinite slope or intercept")
        return list(map(LinearPiece, lo.tolist(), hi.tolist(), slope.tolist(),
                        intercept.tolist(), val_lo.tolist(), val_hi.tolist()))


class _PieceTable:
    """Pieces as arrays in their given order, each anchor val_lo / val_hi with
    the t at_lo / at_hi where it applies (both NaN, which no t equals, if
    none); in order of lo, the starts, their reach cummax(hi) and the runs
    [run_lo, run_hi] of pieces that overlap or touch, one of which holds a
    covered interval.  Built column by column: one list per field."""

    def __init__(self, pieces: Sequence[LinearPiece]):
        # an absent anchor (None) converts to NaN; a present one is never NaN
        (self.lo, self.hi, self.slope, self.intercept, self.val_lo, self.val_hi) = np.array(
            [[p.lo for p in pieces], [p.hi for p in pieces], [p.slope for p in pieces],
             [p.intercept for p in pieces], [p.val_lo for p in pieces],
             [p.val_hi for p in pieces]], dtype=float)
        self.at_lo = np.where(np.isnan(self.val_lo), np.nan, self.lo)
        self.at_hi = np.where(np.isnan(self.val_hi), np.nan, self.hi)
        self.order = np.argsort(self.lo, kind="stable")
        self.starts, self.reach = self.lo[self.order], np.maximum.accumulate(self.hi[self.order])
        gap = np.flatnonzero(self.starts[1:] > self.reach[:-1])   # a run ends at gap, the next starts
        self.run_lo = np.concatenate((self.starts[:1], self.starts[gap + 1]))
        self.run_hi = np.concatenate((self.reach[gap], self.reach[-1:]))

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
            exact_sup=_negated_hook(self.exact_inf),
            exact_inf=_negated_hook(self.exact_sup),
            name=f"-{self.name}",
        )


def _neg_or_none(v):
    return None if v is None else -v


def _negated_hook(hook):
    """The hook of -f from the opposite hook of f, called one set at a time."""
    return None if hook is None else lambda A: _neg_or_none(call_one(hook, A, dtype=object))


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

    def __post_init__(self):
        check_extended_real(self.value)   # the last guard: no optimum is NaN


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


def _extreme(f: ObjectiveFn, A, want_max: bool, points: Callable, passes: dict) -> OptValue:
    """SUP_f(A) if ``want_max`` else INF_f(A): the value of the exact hook, asked by
    ``_hook_values`` for any set model and never for a probe list; else ``_by_points``."""
    hook = f.exact_sup if want_max else f.exact_inf
    if hook is not None and isinstance(A, SetModel):
        v = _hook_values(f, hook, [A])[0]
        if v == v:   # NaN marks a set the hook has no value for
            return OptValue(float(v), None, "exact")
    return _by_points(f, A, want_max, points, passes)


def _hook_values(f: ObjectiveFn, hook: Callable, sets) -> np.ndarray:
    """The exact hook's value at each set of a sequence, NaN where it has
    none (None): one ``call_rows`` call, so a row-form hook takes the whole
    sequence (a stack) at once and any other hook is called per set, clouds
    included.  A NaN from the hook raises ValueError."""
    values = call_rows(hook, len(sets), sets, dtype=object)
    out = np.array(values, dtype=float)   # NaN where a value is None
    if (np.isnan(out).any() if getattr(values, "dtype", object) != object   # no None in it
            else any(v is not None and v != v for v in values)):
        raise ValueError(f"the exact hook of {f.name} returned NaN")
    return out


def _by_points(f: ObjectiveFn, A, want_max: bool, points: Callable,
               passes: dict) -> OptValue:
    """The extreme of f over A without its exact hook, over a probe list's
    points, a piece table's candidates on an interval union, or ``points(A)``
    (``sets._draws``); the objective pass over A is kept in ``passes`` under
    id(A) for the other extreme.  A NaN objective value, or pieces that do
    not cover the closure of each interval of an interval union, raise ValueError."""
    if id(A) not in passes:
        if f.table is not None and isinstance(A, IntervalUnion):
            passes[id(A)] = *_piecewise_candidates(f.table, A), "exact"
        else:
            pts, exact = points(A) if isinstance(A, SetModel) else (list(A), True)
            if not len(pts):
                return OptValue(NEG_INF if want_max else INF, None, "exact")
            vals = call_rows(f.fn, len(pts), pts)
            if np.isnan(vals).any():
                raise ValueError(f"{f.name} is NaN on a point of the set")
            passes[id(A)] = vals, pts.__getitem__, "exact" if exact else "sampled"
    vals, witness, mode = passes[id(A)]
    return _best(vals, witness, want_max, mode)


def _extremes(f: ObjectiveFn, sets, want_max: bool, budget: int,
              rng: Optional[np.random.Generator],
              check: Callable = lambda i, A: A) -> Tuple[np.ndarray, Dict[int, OptValue]]:
    """SUP_f (INF_f, unless ``want_max``) of each set model of a sequence,
    each as ``_extreme(f, A, want_max, _draws(budget, rng), {})`` gives it,
    in one stacked pass: the exact hook is asked once for the whole sequence
    (``_hook_values``); each set it leaves without a value passes ``check(i,
    A)`` (which returns A or raises), in order; the clouds among them take
    one objective call per run of consecutive clouds of one point shape
    that fits one tile (``_runs``; a cloud larger than a tile is a call of
    its own), over their concatenated points; the rest go through
    ``_by_points`` one at a time, in order, each with its own ``_draws``.
    Returns the values and, by index, the OptValue of each set the hook
    left without a value: a hook's value v stands for OptValue(v, None,
    "exact"), and no object is built for it.  A NaN value raises
    ValueError."""
    hook = f.exact_sup if want_max else f.exact_inf
    vals = np.full(len(sets), np.nan) if hook is None else _hook_values(f, hook, sets)
    found, clouds, rest = {}, {}, []
    for i in np.flatnonzero(np.isnan(vals)).tolist():
        A = check(i, sets[i])
        if isinstance(A, FiniteCloud):
            clouds.setdefault(A.points.shape[1:], []).append((i, A))
        else:
            rest.append((i, A))
    for shape, group in clouds.items():
        # an objective makes a few temporaries of its points' size, so a
        # coordinate counts as 8 entries of the tile
        for run in _runs(group, _tile_rows(8 * math.prod(shape))):
            P = run[0][1].points if len(run) == 1 else np.concatenate([A.points for _, A in run])
            fP = call_rows(f.fn, len(P), P)
            if np.isnan(fP).any():
                raise ValueError(f"{f.name} is NaN on a point of the set")
            ends = np.cumsum([len(A) for _, A in run]).tolist()
            for (i, A), lo, hi in zip(run, [0, *ends], ends):
                found[i] = _best(fP[lo:hi], A.points.__getitem__, want_max, "exact")
    for i, A in rest:
        found[i] = _by_points(f, A, want_max, _draws(budget, rng), {})
    for i, opt in found.items():
        vals[i] = opt.value
    return vals, found


def _runs(group: list, rows: int):
    """The (i, cloud) pairs of ``group`` in runs of consecutive clouds with at
    most ``rows`` points in all; a larger cloud is a run of its own."""
    run, n = [], 0
    for item in group:
        if run and n + len(item[1]) > rows:
            yield run
            run, n = [], 0
        run.append(item)
        n += len(item[1])
    if run:
        yield run


def _best(vals: np.ndarray, witness: Callable, want_max: bool, mode: str) -> OptValue:
    """The first largest (smallest, unless ``want_max``) value and its witness."""
    j = int(np.argmax(vals) if want_max else np.argmin(vals))
    return OptValue(float(vals[j]), witness(j), mode)


def sup_over(f: ObjectiveFn, A, budget: int = DEFAULT_BUDGET,
             rng: Optional[np.random.Generator] = None) -> OptValue:
    """SUP_f(A) with the convention sup over an empty probe list = -inf."""
    return _extreme(f, A, True, _draws(budget, rng), {})


def inf_over(f: ObjectiveFn, A, budget: int = DEFAULT_BUDGET,
             rng: Optional[np.random.Generator] = None) -> OptValue:
    """INF_f(A) with the convention inf over an empty probe list = +inf."""
    return _extreme(f, A, False, _draws(budget, rng), {})


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
        """The header and one line per row, each cell ``_fmt`` of its value
        (None for a missing key), formatted a column at a time."""
        cols = [_fmt_column([r.get(c) for r in self.rows]) for c in self.columns]
        lines = map(",".join, zip(*cols)) if cols else [""] * len(self.rows)
        with open(path, "w") as fh:
            fh.write("\n".join([",".join(self.columns), *lines, ""]))


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# the formatter that equals _fmt on every value of exactly one of these types
_EXACT_FMT = {float: float.__repr__, int: int.__repr__, str: str}


def _fmt_column(values: list) -> list:
    """``_fmt`` of each value: one formatter for a column whose values all
    have one exact type float, int or str, ``_fmt`` per value otherwise."""
    kinds = set(map(type, values))
    return list(map(_EXACT_FMT.get(kinds.pop(), _fmt) if len(kinds) == 1 else _fmt, values))


def check_finite_stability(f: ObjectiveFn, d: PseudoDistance,
                           pairs: Sequence, eps: Optional[float] = None,
                           tol: float = TOL_OPT, diagnostic: bool = False,
                           budget: int = DEFAULT_BUDGET,
                           rng: Optional[np.random.Generator] = None) -> VerdictReport:
    """Finite-case stability transfer over supplied (A, A') pairs.

    Uniform regularity: whenever D_H(A, A') < delta(eps/2), both optimal
    values move by less than eps.  Lipschitz regularity: each change is at
    most Lambda times its own direction of D_asyH, plus tol,

        sup f(A) - sup f(A'), inf f(A') - inf f(A) <= Lambda D_asyH(A, A'),
        sup f(A') - sup f(A), inf f(A) - inf f(A') <= Lambda D_asyH(A', A),

    and the smallest of the four slacks is the row's ``one_sided_slack``; a
    slack is 0 where both sides are one infinity, in ``slack`` too.  A row
    whose two directions and four extremes are all exact takes its verdict
    from it; any other row from ``slack``, against Lambda D_H(A, A') + tol, since
    beside a sampled distance an exact hook can break the one-sided form at
    the true Lambda.  ``diagnostic=True`` allows a continuous-only objective
    and records the violations instead of refusing (used to demonstrate the
    necessity of the hypotheses); uniform regularity needs ``eps`` in both
    modes.  A row's distances and four extremes read one draw of each
    sampled set of its pair (one ``sets._draws``).
    """
    reg = f.regularity
    if isinstance(reg, ContinuousOnly) and not diagnostic:
        raise ValueError("hypotheses unmet: objective is continuous-only")
    if isinstance(reg, UniformModulus) and eps is None:
        raise ValueError("uniform regularity requires a target eps")

    columns = ["pair_id", "D_H", "sup_A", "sup_Ap", "inf_A", "inf_Ap",
               "delta_used", "bound", "slack", "verdict"]
    rows = []
    for i, (A, Ap) in enumerate(pairs):
        points, passes = _draws(budget, rng), {}   # one draw, one objective pass per set
        d_to, d_from, exact = _hausdorff(d, A, Ap, points)   # D_asyH(A, A'), D_asyH(A', A)
        d_to, d_from = check_extended_real(d_to), check_extended_real(d_from)
        dh = max(d_to, d_from)
        opts = [_extreme(f, S, want, points, passes) for want in (True, False) for S in (A, Ap)]
        sA, sAp, iA, iAp = [o.value for o in opts]
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
            change = max(dsup, dinf)
            slack = 0.0 if bound == change else bound - change
            # D_asyH(A, A') bounds sup f(A) - sup f(A') and inf f(A') - inf f(A),
            # D_asyH(A', A) their negatives
            b_to, b_from = scale(reg.lam, d_to) + tol, scale(reg.lam, d_from) + tol
            move_to, move_from = max(sA - sAp, iAp - iA), max(sAp - sA, iA - iAp)
            one_sided = min(0.0 if b_to == move_to else b_to - move_to,
                            0.0 if b_from == move_from else b_from - move_from)
            exact = exact and all(o.mode == "exact" for o in opts)
            row.update(delta_used="", bound=bound, slack=slack, one_sided_slack=one_sided,
                       verdict="pass" if (one_sided if exact else slack) >= 0 else "fail")
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
                          mode: str = "sup",
                          budget: int = DEFAULT_BUDGET,
                          rng: Optional[np.random.Generator] = None) -> dict:
    """Infinite-case escape verification for SUP_f(A) = +inf (or INF = -inf).

    ``witness_seq(level)`` must return a point of A with f > level (the
    closed-form unboundedness certificate); sampling is never used to prove
    unboundedness.  Returns the constructed delta and per-candidate verdicts.
    D_asyH and sup read one draw of each sampled set (one ``sets._draws``).
    A mode other than "sup" or "inf" raises ValueError.
    """
    if mode not in ("sup", "inf"):
        raise ValueError(f"mode must be 'sup' or 'inf', not {mode!r}")
    if mode == "inf":
        neg = check_infinite_escape(f.negated(), d, A, -mu, candidates,
                                    witness_seq=lambda lv: witness_seq(-lv),
                                    eps=eps, mode="sup", budget=budget, rng=rng)
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
    else:
        raise ValueError("no continuity information at the witness point")

    rows, points, passes = [], _draws(budget, rng), {}
    for i, Ap in enumerate(candidates):
        dasy = _report(*_asym(d, A, Ap, points), budget).value
        if dasy < delta:
            s = _extreme(f, Ap, True, points, passes).value
            rows.append(dict(candidate=i, D_asyH=dasy, sup=s, verdict="pass" if s > mu else "fail"))
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
    D_asyH(A', A) < delta (with delta associated to eps by f's modulus): the
    one direction that bounds sup f(A') - sup f(A), so a pair whose D_H is
    larger (A' far inside A) is covered too.  D_asyH and both sups read one
    draw of each sampled set (one ``sets._draws``)."""
    points, passes = _draws(budget, rng), {}
    sA = _extreme(f, A, True, points, passes).value
    if not math.isfinite(sA):
        raise ValueError("hypotheses unmet: A is outside dom(SUP_f)")
    d_from, _ = _asym(d, Ap, A, points)
    if not d_from < delta:
        raise ValueError(f"hypotheses unmet: D_asyH(A', A) = {d_from} >= delta = {delta}")
    sAp = _extreme(f, Ap, True, points, passes).value
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
