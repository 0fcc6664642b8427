"""The array-built instances against the per-point and per-piece references.

``instances.random_piecewise_objective`` draws all slopes in one call, sums
the rises with one cumsum and anchors every piece by whole-array steps
(``LinearPiece.from_anchor_columns``); ``instances.oscillating_objective``
(ce33) anchors all its gap pieces in one such call;
``instances.quartic_problem`` takes its row powers from ``np.float_power``.
``instance_reference`` keeps the bodies they replaced, and
``piecewise_reference.from_anchors`` the scalar anchoring rule that
``LinearPiece.from_anchors`` now runs as a one-entry column build.  The first
property below holds each draw to its reference:
the same pieces bit for bit, the same Lipschitz constant and the same next
draw from the generator, or the same exception type.  It runs with numpy's
warnings as errors (the tier-1 setting) and ignored, so a draw whose sums
overflow must warn where the reference warns and, past the warning, end
as the reference ends.  The CLI test compares the stability and ladder
tables, byte for byte, with the tables the reference generators give, at
seeds no sha256 pin holds.

The anchoring property holds ``from_anchors`` to the scalar rule on any
floats: the same bits or the same refusal, and no RuntimeWarning.

The properties run derandomized.  With ``OPTSTAB_RANDOMIZE=1`` they draw at
the ``--hypothesis-seed`` given to pytest instead, so a failure seen at a
fresh seed can be replayed with that seed.
"""

import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instance_reference
import piecewise_reference
from optstab import instances
from optstab.cli import main
from optstab.optima import LinearPiece, Lipschitz

SETTINGS = settings(max_examples=300, deadline=None, database=None,
                    derandomize=os.environ.get("OPTSTAB_RANDOMIZE") != "1")
# moderate values, and any float: overflowing ranges, sums and slopes
REALS = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False),
                  st.floats())


@st.composite
def ends(draw):
    """(lo, hi): any two, lo == hi (every piece zero-wide), or hi within a
    millionth of lo, so that a piece far from 0 is narrow."""
    lo, kind = draw(REALS), draw(st.sampled_from(["any", "any", "same", "near"]))
    if kind == "near":
        return lo, lo + abs(lo) * draw(st.floats(0.0, 1e-6))
    return lo, lo if kind == "same" else draw(REALS)


@st.composite
def slope_bounds(draw):
    """(lam_lo, lam_hi) >= 0 (+inf included), in order, or reversed (lam_lo >
    lam_hi) one time in four."""
    bounds = sorted(draw(st.one_of(st.floats(0.0, 1e3), st.floats(0.0))) for _ in range(2))
    return bounds[::-1] if draw(st.integers(0, 3)) == 0 else bounds


def _fields(p) -> tuple:
    return p.lo, p.hi, p.slope, p.intercept, p.val_lo, p.val_hi


def _bits(values) -> list:
    return np.array(values, dtype=float).view(np.int64).tolist()


def _draw(generator, seed: int, action: str, **kw):
    """(pieces as bits, Lipschitz constant as bits, the generator's next
    draw), or the type of the exception the draw raised."""
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        try:
            f = generator(rng, **kw)
        except Exception as e:   # a RuntimeWarning too, with action "error"
            return type(e)
    assert isinstance(f.regularity, Lipschitz)
    pieces = [_bits(_fields(p)) for p in f.pieces]
    return pieces, _bits([f.regularity.lam]), rng.random()


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n_breaks=st.integers(0, 20), lo_hi=ends(),
       lam=slope_bounds(), action=st.sampled_from(["error", "ignore"]))
def test_the_array_draw_equals_the_per_piece_draw(seed, n_breaks, lo_hi, lam, action):
    kw = dict(lo=lo_hi[0], hi=lo_hi[1], lam_lo=lam[0], lam_hi=lam[1], n_breaks=n_breaks)
    want = _draw(instance_reference.random_piecewise_objective, seed, action, **kw)
    assert _draw(instances.random_piecewise_objective, seed, action, **kw) == want


def test_zero_wide_pieces_get_slope_zero_and_fields_are_python_floats():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # a 0/0 would raise here
        f = instances.random_piecewise_objective(np.random.default_rng(5), lo=2.0, hi=2.0,
                                                 lam_lo=1.0, lam_hi=3.0, n_breaks=4)
    assert len(f.pieces) == 5
    assert [(p.lo, p.hi, p.slope, p.intercept) for p in f.pieces] == [(2.0, 2.0, 0.0, 0.0)] * 5
    assert f.regularity == Lipschitz(0.0)
    f = instances.random_piecewise_objective(np.random.default_rng(5))
    assert repr(f.regularity).startswith("Lipschitz(lam=") and "np." not in repr(f.regularity)
    assert {type(v) for p in f.pieces
            for v in (p.lo, p.hi, p.slope, p.intercept, p.val_lo, p.val_hi)} == {float}


def _one_piece(build, *args):
    try:
        p = build(*args)
    except ValueError:
        return ValueError
    return _bits(_fields(p))


def _piece_fields(f) -> list:
    """The bits and the types (None for an absent anchor) of each piece's fields."""
    return [(_one_piece(lambda: p), [type(v) for v in _fields(p)]) for p in f.pieces]


def _one_column(*args) -> LinearPiece:
    return LinearPiece.from_anchor_columns(*(np.array([v]) for v in args))[0]


def test_anchor_columns_equal_from_anchors_at_every_rule():
    # infinite and overflowing ends (h = 1/2), zero widths, 0 * inf in the
    # intercept, a rise too steep for a float on a piece 1e-311 wide, and
    # infinite anchors, one piece at a time and all in one call, against the
    # scalar rule; the public from_anchors warns nowhere
    ends = [-math.inf, -1.5e308, -1.0, -0.0, 0.0, 1e-311, 1.0, 1.5e308, math.inf]
    anchors = [-math.inf, -1e308, -1.0, 0.0, 1.0, 1e308, math.inf]
    cases = [(lo, hi, a, b) for lo, hi in itertools.product(ends, ends) if lo <= hi
             for a, b in itertools.product(anchors, anchors)]
    want = [_one_piece(piecewise_reference.from_anchors, *c) for c in cases]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert [_one_piece(LinearPiece.from_anchors, *c) for c in cases] == want
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert [_one_piece(_one_column, *c) for c in cases] == want
        good = [c for c, w in zip(cases, want) if w is not ValueError]
        assert 0 < len(good) < len(cases)   # pieces and refusals both
        pieces = LinearPiece.from_anchor_columns(*map(np.array, zip(*good)))
        assert [_one_piece(lambda: p) for p in pieces] == [w for w in want if w is not ValueError]


# any float (NaN too), and the values where the rules branch: signed zeros
# and infinities, the smallest subnormals and floats near overflow
SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-311,
                           2.2e-308, 1e308, -1e308, 1.5e308, -1.5e308, 1.0, -1.0])
FLOATS = st.one_of(SPECIAL, st.floats(), st.floats(-1e-300, 1e-300), st.floats(-1e3, 1e3))


@st.composite
def anchor_ends(draw):
    """(lo, hi): any two (either order), lo == hi, a width that overflows
    (ends near +-max float), or hi one ulp above lo."""
    lo, kind = draw(FLOATS), draw(st.sampled_from(["any", "same", "overflow", "ulps"]))
    if kind == "same":
        return lo, lo
    if kind == "overflow":
        return -draw(st.floats(1e307, 1.7e308)), draw(st.floats(1e307, 1.7e308))
    if kind == "ulps":
        return lo, float(np.nextafter(lo, math.inf) if math.isfinite(lo) else lo)
    return lo, draw(FLOATS)


@SETTINGS
@given(lo_hi=anchor_ends(), val_lo=FLOATS, val_hi=FLOATS)
def test_from_anchors_equals_the_scalar_reference(lo_hi, val_lo, val_hi):
    args = (*lo_hi, val_lo, val_hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _one_piece(LinearPiece.from_anchors, *args)
        want = _one_piece(piecewise_reference.from_anchors, *args)
    assert got == want
    if got is not ValueError:
        p = LinearPiece.from_anchors(*args)
        assert set(map(type, _fields(p))) == {float}


@pytest.mark.parametrize("K", [2, 3, 20, 60, 1000])
def test_ce33_pieces_equal_the_per_block_reference(K):
    got, want = instances.oscillating_objective(K), instance_reference.oscillating_objective(K)
    assert len(got.pieces) == len(want.pieces) == 4 * (K - 1) + 2
    assert _piece_fields(got) == _piece_fields(want)
    assert (got.name, got.regularity) == (want.name, want.regularity)


def _table(tmp_path, cfg: dict, table: str) -> bytes:
    out = tmp_path / f"out-{len(list(tmp_path.iterdir()))}"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(cfg, out_dir=str(out))))
    assert main(["run", str(path)]) == 0
    return (out / table).read_bytes()


@pytest.mark.parametrize("cfg, table", [
    *(({"kind": "stability", "seed": s, "n_trials": 30}, "stability.csv")
      for s in (0, 2, 11, 104, 2 ** 31 + 5)),
    *(({"kind": "ladder", "seed": s, "n_levels": 4}, "ladder.csv")
      for s in (0, 2, 11, 104, 2 ** 31 + 5)),
], ids=lambda v: f"{v['kind']}-{v['seed']}" if isinstance(v, dict) else None)
def test_cli_tables_equal_the_tables_of_the_reference_generators(tmp_path, monkeypatch, cfg,
                                                                 table):
    got = _table(tmp_path, cfg, table)
    monkeypatch.setattr(instances, "random_piecewise_objective",
                        instance_reference.random_piecewise_objective)
    monkeypatch.setattr(instances, "quartic_problem", instance_reference.quartic_problem)
    assert got == _table(tmp_path, cfg, table)
