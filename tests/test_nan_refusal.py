"""NaN is refused where a model is built, not met later as a value.

Every public set model, every ``GaugeSet`` constructor, the distances,
``Lipschitz``, ``LinearPiece`` and every ``load_set`` kind is built below
with NaN put in each of its numeric fields in turn; each build must raise
ValueError.  As a last guard, a ``DistanceReport`` or ``OptValue`` of value
NaN cannot be built either.  Infinite coordinates stay legal where a model
allows them.
"""

import json
import math

import numpy as np
import pytest

from optstab.distances import PseudoDistance, euclidean
from optstab.gauges import GaugeSet, minkowski_gauge
from optstab.optima import LinearPiece, Lipschitz, ObjectiveFn, OptValue, sup_over
from optstab.sets import (AffineSlab, AxisSegments, DistanceReport, FiniteCloud,
                          ImplicitSampled, Interval, IntervalUnion, load_set)

NAN, INF = math.nan, math.inf


def _sampler(n, rng):
    return rng.standard_normal((n, 2))


def _inside(x):
    return float(np.linalg.norm(x)) <= 1.0


SQUARE = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]

# (model, field): a build with NaN in that field and good values elsewhere
BUILDS = {
    ("FiniteCloud", "points"): lambda: FiniteCloud([[0.0, 1.0], [NAN, 0.0]]),
    ("FiniteCloud", "scalar points"): lambda: FiniteCloud([0.0, NAN]),
    ("Interval", "lo"): lambda: Interval(NAN, 1.0),
    ("Interval", "hi"): lambda: Interval(0.0, NAN),
    ("IntervalUnion", "lo"): lambda: IntervalUnion([(0.0, 1.0), (NAN, 3.0)]),
    ("IntervalUnion", "hi"): lambda: IntervalUnion([(0.0, NAN)]),
    ("AxisSegments", "extent"): lambda: AxisSegments({0: (1.0, True), 1: (NAN, False)}),
    ("AxisSegments", "axis"): lambda: AxisSegments({NAN: (1.0, True)}),
    ("AxisSegments", "dim"): lambda: AxisSegments({0: (1.0, True)}, dim=NAN),
    ("ImplicitSampled", "witness"): lambda: ImplicitSampled(lambda x: True, _sampler, 2,
                                                            [NAN, 0.0]),
    ("ImplicitSampled", "dim"): lambda: ImplicitSampled(_inside, _sampler, NAN, [0.0, 0.0]),
    ("AffineSlab", "particular"): lambda: AffineSlab([0.0, NAN], [[1.0], [0.0]]),
    ("AffineSlab", "kernel_basis"): lambda: AffineSlab([0.0, 0.0], [[1.0], [NAN]]),
    ("AffineSlab", "box_halfwidth"): lambda: AffineSlab([0.0, 0.0], [[1.0], [0.0]], NAN),
    ("GaugeSet.from_halfspaces", "rows"): lambda: GaugeSet.from_halfspaces(
        [[1.0, 0.0], [NAN, 1.0]], [1.0, 1.0]),
    ("GaugeSet.from_halfspaces", "offsets"): lambda: GaugeSet.from_halfspaces(SQUARE,
                                                                              [1.0, NAN, 1.0, 1.0]),
    ("GaugeSet.from_vertices", "vertices"): lambda: GaugeSet.from_vertices(
        [[1.0, 0.0], [-1.0, NAN], [0.0, 1.0]]),
    ("GaugeSet.from_ball", "radius"): lambda: GaugeSet.from_ball(NAN, 2),
    ("GaugeSet.from_ball", "dim"): lambda: GaugeSet.from_ball(1.0, NAN),
    ("GaugeSet.from_oracle", "dim"): lambda: GaugeSet.from_oracle(_inside, NAN, 1.0),
    ("GaugeSet.from_oracle", "bounding_radius"): lambda: GaugeSet.from_oracle(_inside, 2, NAN),
    ("Lipschitz", "lam"): lambda: Lipschitz(NAN),
    ("PseudoDistance", "ambient_dim"): lambda: PseudoDistance("gap", lambda x, y: 0.0,
                                                              ambient_dim=NAN),
    ("euclidean", "dim"): lambda: euclidean(NAN),
    ("DistanceReport", "value"): lambda: DistanceReport(NAN, "sampled", 10, INF),
    ("OptValue", "value"): lambda: OptValue(NAN, None, "exact"),
}
PIECE = dict(lo=0.0, hi=1.0, slope=2.0, intercept=0.5, val_lo=0.5, val_hi=2.5)
BUILDS.update({("LinearPiece", k): (lambda k=k: LinearPiece(**dict(PIECE, **{k: NAN})))
               for k in PIECE})
ANCHORS = dict(lo=0.0, hi=1.0, val_lo=0.5, val_hi=2.5)
BUILDS.update({("LinearPiece.from_anchors", k):
               (lambda k=k: LinearPiece.from_anchors(**dict(ANCHORS, **{k: NAN})))
               for k in ANCHORS})

# (kind, field): a set document with NaN in that field
DOCUMENTS = {
    ("finite_cloud", "points"): {"kind": "finite_cloud", "points": [[0.0, 0.0], [1.0, NAN]]},
    ("interval_union", "lo"): {"kind": "interval_union", "intervals": [[NAN, 1.0, True, True]]},
    ("interval_union", "hi"): {"kind": "interval_union", "intervals": [[0.0, NAN, True, False]]},
    ("axis_segments", "extent"): {"kind": "axis_segments", "dim": 2,
                                  "extents": {"0": [1.0, True], "1": [NAN, True]}},
    ("axis_segments", "dim"): {"kind": "axis_segments", "dim": NAN,
                               "extents": {"0": [1.0, True]}},
    ("affine_slab", "particular"): {"kind": "affine_slab", "particular": [NAN, 0.0],
                                    "kernel_basis": [[1.0], [0.0]], "box_halfwidth": 1.0},
    ("affine_slab", "kernel_basis"): {"kind": "affine_slab", "particular": [0.0, 0.0],
                                      "kernel_basis": [[1.0], [NAN]], "box_halfwidth": 1.0},
    ("affine_slab", "box_halfwidth"): {"kind": "affine_slab", "particular": [0.0, 0.0],
                                       "kernel_basis": [[1.0], [0.0]], "box_halfwidth": NAN},
}


@pytest.mark.parametrize("case", sorted(BUILDS), ids="-".join)
def test_a_nan_field_is_refused_at_construction(case):
    with pytest.raises(ValueError):
        BUILDS[case]()


@pytest.mark.parametrize("case", sorted(DOCUMENTS), ids="-".join)
def test_a_nan_field_in_a_set_file_is_refused_by_load_set(case, tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(DOCUMENTS[case]))    # NaN is written as the token NaN
    with pytest.raises(ValueError):
        load_set(path)


def test_every_serializable_kind_is_covered():
    from optstab.sets import _SERIALIZABLE
    assert {kind for kind, _ in DOCUMENTS} == set(_SERIALIZABLE)


# ---------------------------------------------------------------------------
# the three cases that were accepted before
# ---------------------------------------------------------------------------

def test_sup_over_a_nan_cloud_is_refused_when_the_cloud_is_built():
    # before: sup_over(ObjectiveFn(fn=lambda x: 1.0), FiniteCloud([[nan, 0.0]]))
    # returned OptValue(1.0, [nan, 0.], 'exact')
    with pytest.raises(ValueError, match="NaN"):
        FiniteCloud([[NAN, 0.0]])
    # infinite coordinates stay legal
    A = FiniteCloud([[INF, 0.0], [0.0, -INF]])
    assert sup_over(ObjectiveFn(fn=lambda x: 1.0), A).value == 1.0


@pytest.mark.parametrize("radius", [NAN, INF, 0.0, -1.0])
def test_an_oracle_gauge_refuses_a_bounding_radius_that_is_not_finite_and_positive(radius):
    # before: a NaN radius was taken, and the gauge of (3, 0) in the unit
    # disk came out as 3.0000000000863 with the radius ignored
    with pytest.raises(ValueError, match="bounding radius"):
        GaugeSet.from_oracle(_inside, 2, radius)
    C = GaugeSet.from_oracle(_inside, 2, 1.0)
    assert minkowski_gauge(C, [3.0, 0.0]) == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("witness", [[NAN, 0.0], [0.0, INF]])
def test_an_implicit_set_refuses_a_non_finite_witness(witness):
    # before: a NaN witness that the oracle accepted was appended to every sample
    with pytest.raises(ValueError, match="witness"):
        ImplicitSampled(lambda x: True, _sampler, 2, witness)
    A = ImplicitSampled(lambda x: True, _sampler, 2, [0.0, 0.0])
    assert np.isfinite(A.sample(5, np.random.default_rng(0))).all()
