"""The eta sampler a tile at a time, and the memory the tile budget bounds.

``linear._eta_for_gauge`` draws, normalises and gauges its directions one
tile of ``sets._CDIST_BLOCK`` entries at a time.  The reference below is
the sampler as it stood, every direction in one array: the two must give
``==`` results, leave the generator in one state and raise alike, at any
tile size, for every kind of ``S_Y`` it samples (halfspace, vertex and
oracle gauges and a plain callable), zero-norm draws included.

The memory tests hold the tracemalloc peaks of ``tile_peaks`` under their
bounds; a sweep that builds a whole product-sized array again fails them.

The property runs derandomized.  With ``OPTSTAB_RANDOMIZE=1`` it draws at
the ``--hypothesis-seed`` given to pytest instead, so a failure seen at a
fresh seed can be replayed with that seed.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tile_peaks
from optstab import linear, sets
from optstab.gauges import GaugeSet, minkowski_gauge

SETTINGS = settings(max_examples=60, deadline=None, database=None,
                    derandomize=os.environ.get("OPTSTAB_RANDOMIZE") != "1")
BLOCKS = st.sampled_from([40, 300, 5000, sets._CDIST_BLOCK])


def _eta_one_pass(lm, S_Y, rng, n_samples=linear.ETA_SAMPLES):
    """``linear._eta_for_gauge`` as it stood: every direction in one array."""
    if isinstance(S_Y, GaugeSet) and S_Y.kind == "ball":
        return float(S_Y.radius), "exact-ball"
    dirs = rng.standard_normal((n_samples, lm.rank))
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 0] / norms[norms > 0, None]
    S = dirs @ lm.range_basis.T
    if isinstance(S_Y, GaugeSet):
        g = minkowski_gauge(S_Y, S)
    else:
        g = np.array([float(S_Y(s)) for s in S])
    ok = g > 0.0  # drops zero and NaN gauges; an infinite one gives ratio 0
    worst = float(np.max(np.max(np.abs(dirs[ok]), axis=1) / g[ok], initial=0.0))
    return worst * linear.ETA_INFLATION, "sampled-inflated"


class _ZeroingRng:
    """A generator whose ``standard_normal`` rows with a first value within
    0.3 of 0 are all zero: zero-norm directions, the same whichever blocks
    draw them."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def standard_normal(self, shape):
        X = self.rng.standard_normal(shape)
        X[np.abs(X[:, 0]) < 0.3] = 0.0
        return X


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _gauge(kind, p, rng):
    """An S_Y of dimension p: a gauge set of ``kind``, or a plain callable."""
    if kind == "halfspaces":   # some offsets 0 (gauge inf off a cone) or +inf (no bound)
        A = rng.standard_normal((int(rng.integers(1, 6)), p))
        b = rng.choice([0.0, 0.5, 1.0, 2.0, math.inf], len(A))
        return GaugeSet.from_halfspaces(A, b)
    if kind == "vertices":     # symmetric, so 0 is in the hull, and mostly of full dimension
        B = rng.standard_normal((int(rng.integers(max(1, p - 1), p + 3)), p))
        return GaugeSet.from_vertices(np.vstack([B, -B]))
    if kind == "oracle":
        return GaugeSet.from_oracle(lambda x: np.abs(x).sum() <= 1.0, p, bounding_radius=1.0)
    # a callable that is 0 or NaN on some points, which the sampler drops
    return lambda y: math.nan if y[0] > 0.8 else max(0.0, float(np.abs(y).max()) - 0.05)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       kind=st.sampled_from(["halfspaces", "vertices", "oracle", "callable"]),
       block=BLOCKS, n=st.integers(0, 400), zeros=st.booleans())
def test_eta_at_any_block_equals_one_pass(seed, shape, kind, block, n, zeros):
    rng = np.random.default_rng(seed)
    lm = linear.decompose(rng.standard_normal(shape))
    S_Y = _gauge(kind, shape[0], rng)
    make = (lambda: _ZeroingRng(seed)) if zeros else (lambda: np.random.default_rng(seed))
    r_got, r_ref = make(), make()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sets, "_CDIST_BLOCK", block)
        got = _outcome(linear._eta_for_gauge, lm, S_Y, r_got, n)
    assert got == _outcome(_eta_one_pass, lm, S_Y, r_ref, n)
    inner = (lambda r: r.rng) if zeros else (lambda r: r)
    assert inner(r_got).bit_generator.state == inner(r_ref).bit_generator.state


def test_eta_at_the_default_sample_count_equals_one_pass():
    """The halfspace gauge of ``tile_peaks`` at 100,000 directions, over
    many tiles: the same eta, bit for bit, and the same generator state."""
    rng = np.random.default_rng(5)
    lm = linear.decompose(rng.standard_normal((3, 4)))
    S_Y = GaugeSet.from_halfspaces(np.vstack([np.eye(3), -np.eye(3), rng.standard_normal((2, 3))]),
                                   rng.uniform(0.5, 2.0, 8))
    r_got, r_ref = np.random.default_rng(9), np.random.default_rng(9)
    assert linear._eta_for_gauge(lm, S_Y, r_got) == _eta_one_pass(lm, S_Y, r_ref)
    assert r_got.bit_generator.state == r_ref.bit_generator.state


def test_a_negative_sample_count_is_refused():
    lm = linear.decompose(np.eye(2))
    with pytest.raises(ValueError):
        linear._eta_for_gauge(lm, GaugeSet.from_halfspaces(np.eye(2), [1.0, 1.0]),
                              np.random.default_rng(0), -1)


# ---------------------------------------------------------------------------
# memory: the tracemalloc peaks of tile_peaks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", tile_peaks.DISK_SEEDS)
def test_disk_pair_hausdorff_peaks_under_1_5_mb(seed):
    assert tile_peaks.disk_hausdorff_peak(seed) <= 1.5


def test_halfspace_eta_at_the_default_sample_count_peaks_under_1_5_mb():
    assert tile_peaks.halfspace_eta_peak() <= 1.5


def test_the_m_3_to_192_disk_scheme_peaks_under_half_a_mb():
    assert tile_peaks.scheme_peak() <= 0.5
