"""Byte-level goldens for the CLI tables.

Each config below writes one CSV table whose sha256 is pinned.  Only kinds
that make no LAPACK call are pinned, so the hashes do not depend on the
BLAS/LAPACK build.
"""

import hashlib
import json

import pytest

from optstab.cli import main
from optstab.sets import AxisSegments, IntervalUnion, save_set

SETS = {
    "iu_a": IntervalUnion([(0.0, 1.0), (2.0, 3.5), (5.0, 6.0, True, False)]),
    "iu_b": IntervalUnion([(0.2, 1.1), (2.5, 3.0), (5.5, 7.0)]),
    "ax_a": AxisSegments({0: (1.0, True), 2: (2.0, False), 3: (0.5, True)}, dim=5),
    "ax_b": AxisSegments({0: (1.7, True), 1: (0.3, True), 3: (0.5, True)}, dim=5),
}

CONFIGS = {
    "ce33": ({"kind": "counterexample", "instance": "ce33", "j_min": 2, "j_max": 12,
              "K": 20}, "counterexample_ce33.csv"),
    "ce34": ({"kind": "counterexample", "instance": "ce34", "j_min": 2, "j_max": 9,
              "K": 20}, "counterexample_ce34.csv"),
    "scheme": ({"kind": "scheme", "instance": "disk_polygon", "m_min": 3, "m_max": 40},
               "scheme_disk.csv"),
    "stability": ({"kind": "stability", "seed": 3, "n_trials": 25}, "stability.csv"),
    "hausdorff_intervals": ({"kind": "hausdorff", "set_a": "iu_a", "set_b": "iu_b",
                             "seed": 5}, "hausdorff.csv"),
    "hausdorff_axis": ({"kind": "hausdorff", "set_a": "ax_a", "set_b": "ax_b",
                        "seed": 5}, "hausdorff.csv"),
}
CONFIGS.update({
    f"ladder_s{seed}_n{n}": ({"kind": "ladder", "seed": seed, "n_levels": n}, "ladder.csv")
    for seed in (1, 7) for n in (1, 3, 10)})

GOLDEN_SHA256 = {
    "ce33": "c240118d9633bc3ffab05bfcf1b14858dea14b0735c8de222ab408572d33f359",
    "ce34": "b6eeac822f4b656f8e29b1c639a4eb8deb75b57368e92f2cc75c326b7fd61bf1",
    "hausdorff_axis": "d1ac07df26d36c6be4855d3ca050a1683879214087356d4fe620263e5b3e0dde",
    "hausdorff_intervals": "e39a445be1396f5d6182fe549b11d5d2a432b7eb67d7c069c9e100a9c3b78b3b",
    "ladder_s1_n1": "8202409dca390ebe5bae4b6fc5f03dc9d3ecf8b5afe6863e80a7f646b6d8f403",
    "ladder_s1_n3": "17d64bd434237ada363580786cb2f8575434cac9258dae86371f90b4ea615e1f",
    "ladder_s1_n10": "8c03802a20a4e9578e859d1da7eda738b233c30970f2fdd076e9c27a14fa7f91",
    "ladder_s7_n1": "1a6cea1eb25161178d313c9123b6554e1b4b0ce74223ec15ebada1a8861d1a6b",
    "ladder_s7_n3": "51f4e7252770a5a32123c2a794df4c04012fd729d807a14e25843cf97848059e",
    "ladder_s7_n10": "35c582eb55510b2e40ed254f43643d8e62ab2156850d9473914b6175191b9079",
    "scheme": "d1f612100574e5fa1daf78773beedfd47cc545ad96d71a85ff8f0592af5b3fa9",
    "stability": "c83b6ad46266ca37aaebeaf1ffbf5542a5ddf0ab53528e63f67c611dfeb82cec",
}


def run_table(tmp_path, name) -> bytes:
    cfg, table = CONFIGS[name]
    cfg = dict(cfg, out_dir=str(tmp_path / "out"))
    for key in ("set_a", "set_b"):
        if key in cfg:
            path = tmp_path / f"{cfg[key]}.json"
            save_set(SETS[cfg[key]], path)
            cfg[key] = str(path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    return (tmp_path / "out" / table).read_bytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_table_matches_golden(tmp_path, name):
    digest = hashlib.sha256(run_table(tmp_path, name)).hexdigest()
    assert digest == GOLDEN_SHA256[name]
