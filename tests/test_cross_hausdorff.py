"""``sets.hausdorff``'s cross-then-prune sweep against the whole matrix.

Under euclidean() / absolute(), when no closed form applies, ``hausdorff``
takes the exact minima of the first ``_CROSS`` rows and columns of the
distance matrix, then finishes, a tile of ``_CDIST_BLOCK`` entries at a
time, only the rows and columns whose partial minimum can still raise the
max.  The reference below fills the whole matrix with one ``cdist`` call and
reads its row and column minima; the two must give ``==`` reports, at any
tile size and with non-finite inputs included.  ``asym_hausdorff``
sweeps one side the same way and is checked against the max of the whole
matrix's row minima.

The exactness properties run derandomized.  With ``OPTSTAB_RANDOMIZE=1``
they draw at the ``--hypothesis-seed`` given to pytest instead, so a failure
seen at a fresh seed can be replayed with that seed.
"""

import os

import numpy as np
import pytest
import scipy.spatial.distance as ssd
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab import sets
from optstab.distances import absolute, euclidean
from optstab.extreal import INF, row_form
from optstab.sets import DistanceReport, FiniteCloud, ImplicitSampled, asym_hausdorff, hausdorff

T = sets._CROSS
SETTINGS = settings(max_examples=60, deadline=None, database=None,
                    derandomize=os.environ.get("OPTSTAB_RANDOMIZE") != "1")
SEEDS = st.integers(0, 2 ** 32 - 1)
SIZES = st.sampled_from(["1", "T-1", "T", "T+1", "3T+5", "any"])
CROSSES = st.sampled_from([T, 1, 2, 3, 8])
BLOCKS = st.sampled_from([40, 300, 5000, sets._CDIST_BLOCK])


def _size(name, t, rng):
    return {"1": 1, "T-1": max(1, t - 1), "T": t, "T+1": t + 1, "3T+5": 3 * t + 5,
            "any": int(rng.integers(1, 4 * t + 8))}[name]


def _whole_matrix(d, A, B, budget=sets.DEFAULT_BUDGET, rng=None, one_sided=False):
    """D_H (D_asyH if one_sided) from one cdist matrix over the drawn points,
    as ``hausdorff`` and ``asym_hausdorff`` computed it before the sweep:
    NaN anywhere raises ValueError."""
    points = sets._draws(budget, rng)
    (P, exact_a), (Q, exact_b) = points(A), points(B)
    P, Q = (np.asarray(X, dtype=float).reshape(len(X), -1) for X in (P, Q))
    D = ssd.cdist(P, Q, d.fn.metric)
    if np.isnan(D).any():
        raise ValueError("NaN is not an extended real")
    value = float(D.min(axis=1).max())
    if not one_sided:
        value = max(value, float(D.min(axis=0).max()))
    return sets._report(value, exact_a and exact_b, budget)


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except ValueError:
        return ValueError


def _points(rng, n, dim, style, other=None):
    if style == "inside" and other is not None:   # a subset of the other set
        return other[rng.choice(len(other), size=min(n, len(other)), replace=False)]
    if style == "repeated":                        # few distinct points, many copies
        pool = rng.standard_normal((int(rng.integers(1, 6)), dim))
        return pool[rng.integers(0, len(pool), n)]
    if style == "grid":                            # many tied distances
        return rng.integers(-3, 4, (n, dim)).astype(float)
    return rng.standard_normal((n, dim)) * rng.uniform(0.1, 3.0) + rng.uniform(-1, 1)


def _disk(center, radius):
    return ImplicitSampled(
        member=row_form(lambda X: np.linalg.norm(X - center, axis=1) <= radius),
        sampler=lambda n, rg: center + rg.uniform(-radius, radius, size=(n, len(center))),
        dim=len(center), witness=center)


@pytest.fixture
def cdist_calls(monkeypatch):
    """The (rows, columns) of every cdist call ``sets`` makes."""
    calls, real = [], ssd.cdist

    def wrapped(XA, XB, *args, **kw):
        calls.append((len(XA), len(XB)))
        return real(XA, XB, *args, **kw)
    monkeypatch.setattr(ssd, "cdist", wrapped)
    return calls


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

@SETTINGS
@given(seed=SEEDS, dim=st.integers(1, 8), sizes=st.tuples(SIZES, SIZES), cross=CROSSES,
       styles=st.tuples(st.sampled_from(["normal", "repeated", "grid"]),
                        st.sampled_from(["normal", "repeated", "grid", "inside"])),
       swap=st.booleans())
def test_sweep_equals_the_whole_matrix(seed, dim, sizes, cross, styles, swap):
    rng = np.random.default_rng(seed)
    P = _points(rng, _size(sizes[0], cross, rng), dim, styles[0])
    Q = _points(rng, _size(sizes[1], cross, rng), dim, styles[1], other=P)
    A, B = (FiniteCloud(Q), FiniteCloud(P)) if swap else (FiniteCloud(P), FiniteCloud(Q))
    d = absolute() if dim == 1 and rng.random() < 0.5 else euclidean(dim)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sets, "_CROSS", cross)
        got = hausdorff(d, A, B)
        got_asym = asym_hausdorff(d, A, B)
    assert got == _whole_matrix(d, A, B)
    assert got.mode == "exact"
    assert got_asym == _whole_matrix(d, A, B, one_sided=True)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, n=st.integers(1, 80), cross=CROSSES, flat=st.booleans())
def test_absolute_on_one_dimensional_sets(seed, n, cross, flat):
    rng = np.random.default_rng(seed)
    P, Q = rng.uniform(-5, 5, n), np.round(rng.uniform(-5, 5, int(rng.integers(1, 80))), 1)
    A, B = (FiniteCloud(X if flat else X[:, None]) for X in (P, Q))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sets, "_CROSS", cross)
        got = hausdorff(absolute(), A, B)
    assert got == _whole_matrix(absolute(), A, B)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, dim=st.integers(1, 4), budget=st.sampled_from([1, 40, T + 1, 700]),
       cross=CROSSES, kinds=st.sampled_from([("disk", "disk"), ("disk", "cloud"),
                                             ("cloud", "disk")]))
def test_sampled_and_cloud_mixes_keep_value_and_draws(seed, dim, budget, cross, kinds):
    rng = np.random.default_rng(seed)
    make = {"disk": lambda: _disk(rng.standard_normal(dim), float(rng.uniform(0.2, 2.0))),
            "cloud": lambda: FiniteCloud(rng.standard_normal((int(rng.integers(1, 600)), dim)))}
    A, B = (make[k]() for k in kinds)
    d = euclidean(dim)
    r_got, r_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sets, "_CROSS", cross)
        got = hausdorff(d, A, B, budget=budget, rng=r_got)
    assert got == _whole_matrix(d, A, B, budget=budget, rng=r_ref)
    assert got.mode == "sampled"
    assert r_got.bit_generator.state == r_ref.bit_generator.state
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sets, "_CROSS", cross)
        got = asym_hausdorff(d, A, B, budget=budget, rng=r_got)
    assert got == _whole_matrix(d, A, B, budget=budget, rng=r_ref, one_sided=True)
    assert r_got.bit_generator.state == r_ref.bit_generator.state


@SETTINGS
@given(seed=SEEDS, dim=st.integers(1, 4), sizes=st.tuples(SIZES, SIZES), cross=CROSSES,
       block=BLOCKS, swap=st.booleans(),
       infs=st.lists(st.tuples(st.booleans(), st.sampled_from([INF, -INF]),
                               st.integers(0, 2 ** 20)), max_size=4))
def test_any_block_equals_the_whole_matrix(seed, dim, sizes, cross, block, swap, infs):
    """Tiles of every size give the whole matrix's value, or raise as it
    does.  An infinite coordinate makes rows of infinite partial minima,
    which ``_finish`` always completes, and two on one axis with one sign
    make a NaN pair (inf - inf) that may sit in any tile."""
    rng = np.random.default_rng(seed)
    P = _points(rng, _size(sizes[0], cross, rng), dim, "normal")
    Q = _points(rng, _size(sizes[1], cross, rng), dim, "grid")
    for in_p, v, at in infs:
        X = P if in_p else Q
        X[at % len(X), at % dim] = v
    A, B = (FiniteCloud(Q), FiniteCloud(P)) if swap else (FiniteCloud(P), FiniteCloud(Q))
    d = euclidean(dim)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sets, "_CROSS", cross)
        m.setattr(sets, "_CDIST_BLOCK", block)
        got, got_asym = _outcome(hausdorff, d, A, B), _outcome(asym_hausdorff, d, A, B)
    assert got == _outcome(_whole_matrix, d, A, B)
    assert got_asym == _outcome(_whole_matrix, d, A, B, one_sided=True)


# ---------------------------------------------------------------------------
# non-finite points
# ---------------------------------------------------------------------------

def test_nan_and_inf_minus_inf_raise_and_a_lone_inf_is_inf():
    d = euclidean(2)
    with pytest.raises(ValueError, match="NaN"):
        hausdorff(d, FiniteCloud([[np.nan, 0.0]]), FiniteCloud([[0.0, 0.0]]))
    with pytest.raises(ValueError, match="NaN"):
        hausdorff(d, FiniteCloud([[INF, 0.0]]), FiniteCloud([[INF, 1.0]]))
    assert hausdorff(d, FiniteCloud([[INF, 0.0]]), FiniteCloud([[0.0, 1.0]])) == \
        DistanceReport(INF, "exact")
    assert hausdorff(d, FiniteCloud([[INF, 0.0]]), FiniteCloud([[-INF, 1.0]])) == \
        DistanceReport(INF, "exact")


@pytest.mark.parametrize("cross", [1, 4, T])
@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("case", ["nan", "inf-inf", "lone-inf", "inf-first"])
def test_non_finite_points_in_the_pruned_part(cross, side, case, monkeypatch):
    """The non-finite pair sits past the cross, where the sweep prunes."""
    monkeypatch.setattr(sets, "_CROSS", cross)
    rng = np.random.default_rng(11)
    n = 3 * cross + 5
    P, Q = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    if case == "nan":   # a NaN coordinate: the cloud refuses it when it is built
        P[n - 2, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            FiniteCloud(P)
        return
    if case == "inf-inf":              # one NaN pair, among rows of inf
        P[n - 2], Q[n - 1] = (INF, 0.0), (INF, 1.0)
    elif case == "lone-inf":
        P[n - 2] = (INF, 0.0)
    else:   # both maxima are inf (rows P[0], column Q[0]) before the NaN pair is met
        P[0], P[n - 2], Q[0], Q[n - 1] = (-INF, 0.0), (INF, 0.0), (0.0, -INF), (INF, 1.0)
    A, B = (FiniteCloud(P), FiniteCloud(Q)) if side == "A" else (FiniteCloud(Q), FiniteCloud(P))
    d = euclidean(2)
    want = _outcome(_whole_matrix, d, A, B)
    assert _outcome(hausdorff, d, A, B) == want
    assert want == (DistanceReport(INF, "exact") if case == "lone-inf" else ValueError)
    for X, Y in ((A, B), (B, A)):
        assert _outcome(asym_hausdorff, d, X, Y) == _outcome(_whole_matrix, d, X, Y,
                                                             one_sided=True)


@pytest.mark.parametrize("block", [40, 300, 5000, sets._CDIST_BLOCK])
@pytest.mark.parametrize("side", ["A", "B"])
def test_a_nan_pair_after_an_infinite_row_raises_at_any_block(block, side, monkeypatch):
    """A lone infinite row raises the running max to inf inside the finish;
    a later row of infinite partial minimum, in a later tile, still meets
    its NaN pair (inf - inf)."""
    monkeypatch.setattr(sets, "_CROSS", 4)
    monkeypatch.setattr(sets, "_CDIST_BLOCK", block)
    rng = np.random.default_rng(block)
    P, Q = rng.standard_normal((200, 2)), rng.standard_normal((200, 2))
    P[150], P[190], Q[199] = (0.0, INF), (INF, 0.0), (INF, 1.0)
    A, B = (FiniteCloud(P), FiniteCloud(Q)) if side == "A" else (FiniteCloud(Q), FiniteCloud(P))
    with pytest.raises(ValueError, match="NaN"):
        hausdorff(euclidean(2), A, B)
    X, Y = (A, B) if side == "A" else (B, A)
    with pytest.raises(ValueError, match="NaN"):
        asym_hausdorff(euclidean(2), X, Y)


# ---------------------------------------------------------------------------
# work: cdist calls and the share of pairs computed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_small", [1, T - 1, T])
def test_a_set_of_at_most_cross_points_tiles_the_matrix_once(n_small, cdist_calls):
    """No cross: the calls are tiles of whole rows of the matrix, each at
    most the block, and together they compute every pair once."""
    rng = np.random.default_rng(n_small)
    small, large = FiniteCloud(rng.standard_normal((n_small, 3))), \
        FiniteCloud(rng.standard_normal((3 * T + 5, 3)))
    for A, B in ((small, large), (large, small)):
        cdist_calls.clear()
        got = hausdorff(euclidean(3), A, B)
        assert all(c == len(B) and r * c <= sets._CDIST_BLOCK for r, c in cdist_calls)
        assert sum(r * c for r, c in cdist_calls) == len(A) * len(B)
        assert got == _whole_matrix(euclidean(3), A, B)


@pytest.mark.parametrize("block", [sets._CDIST_BLOCK, 5000, 300, 100, 40])
def test_no_cdist_call_exceeds_the_block(block, cdist_calls, monkeypatch):
    rng = np.random.default_rng(block)
    A = FiniteCloud(rng.standard_normal((3 * T + 5, 2)))
    B = FiniteCloud(rng.standard_normal((T + 1, 2)) + 0.3)
    want = _whole_matrix(euclidean(2), A, B)
    cdist_calls.clear()
    monkeypatch.setattr(sets, "_CDIST_BLOCK", block)
    for X, Y in ((A, B), (B, A)):
        assert hausdorff(euclidean(2), X, Y) == want
    assert cdist_calls and max(r * c for r, c in cdist_calls) <= block


def test_disk_pairs_compute_under_half_the_pairs(cdist_calls):
    """Seeded 2-D disk pairs drawn as the benchmark draws them (about 1,600
    points each): the sweep computes a median share of pairs below 0.5."""
    shares = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        ca = rng.uniform(-1, 1, 2)
        cb = ca + rng.uniform(-1, 1, 2) * 0.5
        A, B = _disk(ca, rng.uniform(0.5, 1.5)), _disk(cb, rng.uniform(0.5, 1.5))
        points = sets._draws(sets.DEFAULT_BUDGET, np.random.default_rng(seed))
        n_pairs = len(points(A)[0]) * len(points(B)[0])
        cdist_calls.clear()
        got = hausdorff(euclidean(2), A, B, rng=np.random.default_rng(seed))
        shares.append(sum(r * c for r, c in cdist_calls) / n_pairs)
        assert got == _whole_matrix(euclidean(2), A, B, rng=np.random.default_rng(seed))
    assert np.median(shares) < 0.5
