"""tracemalloc peaks of three sweeps that the tile budget
``sets._CDIST_BLOCK`` bounds, each in MB:

* ``hausdorff`` of two implicit disks at the default budget of 2,048 draws,
  drawn as ``test_cross_hausdorff.test_disk_pairs_compute_under_half_the_pairs``
  draws them (seeds 0 to 11; the largest peak is reported);
* ``restricted_inverse_egi`` with a halfspace ``S_Y`` at the default
  ``ETA_SAMPLES`` directions;
* ``run_scheme`` on the disk polygon scheme for m = 3..192.

The inputs are built, and each sweep is run once, before tracing starts,
so a peak is the sweep's own.  ``tests/test_tiled_sweeps.py`` holds each
peak under its bound; run as a script (``PYTHONPATH=src python
tests/tile_peaks.py``) this prints them.
"""

import tracemalloc

import numpy as np

from optstab import gauges, linear, sets
from optstab.distances import euclidean
from optstab.extreal import row_form
from optstab.instances import disk_polygon_scheme
from optstab.scheme import run_scheme

DISK_SEEDS = range(12)


def peak_mb(fn) -> float:
    """The tracemalloc peak of a second call of ``fn()``, in MB: the first,
    untraced, makes the lazy imports (SciPy's ``cdist``)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def disk(center, radius) -> sets.ImplicitSampled:
    return sets.ImplicitSampled(
        member=row_form(lambda X: np.linalg.norm(X - center, axis=1) <= radius),
        sampler=lambda n, rg: center + rg.uniform(-radius, radius, size=(n, len(center))),
        dim=len(center), witness=center)


def disk_pair(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    ca = rng.uniform(-1, 1, 2)
    cb = ca + rng.uniform(-1, 1, 2) * 0.5
    return disk(ca, rng.uniform(0.5, 1.5)), disk(cb, rng.uniform(0.5, 1.5))


def disk_hausdorff_peak(seed: int) -> float:
    A, B = disk_pair(seed)
    d = euclidean(2)
    return peak_mb(lambda: sets.hausdorff(d, A, B, rng=np.random.default_rng(seed)))


def halfspace_eta_peak(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((3, 4))
    A = np.vstack([np.eye(3), -np.eye(3), rng.standard_normal((2, 3))])
    lm = linear.decompose(L)
    S_X, S_Y = gauges.GaugeSet.from_ball(1.0, 4), gauges.GaugeSet.from_halfspaces(
        A, rng.uniform(0.5, 2.0, len(A)))
    return peak_mb(lambda: linear.restricted_inverse_egi(lm, S_X, S_Y,
                                                         rng=np.random.default_rng(seed)))


def scheme_peak() -> float:
    S = disk_polygon_scheme(range(3, 193))
    return peak_mb(lambda: run_scheme(S))


if __name__ == "__main__":
    print(f"tracemalloc peaks: disk-pair hausdorff {max(map(disk_hausdorff_peak, DISK_SEEDS)):.2f} MB"
          f" (max of seeds 0-11), halfspace eta at {linear.ETA_SAMPLES} samples"
          f" {halfspace_eta_peak():.2f} MB, run_scheme m = 3..192 {scheme_peak():.2f} MB")
