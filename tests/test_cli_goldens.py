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
    "ladder_s1_n1": "01f507ab9d5afe3cc66a41cf16190fee513eb8acf5c786e88db1b5587533efcb",
    "ladder_s1_n3": "dd3821ab1fb6e5da96521e670c3db7d6485c39386a7c059e36a11ae3398cac7e",
    "ladder_s1_n10": "52c8ef740260c8e84d268739d4f1874d5362f2285f872e662ae82e94b7fb1ea8",
    "ladder_s7_n1": "7c7ee53fca7985197cc45901e69459d9e825b5371fdee60579e4b6e5d275a1ec",
    "ladder_s7_n3": "7e35883b09feba5ae6e469d3e3cb69a8023c17303bbd463ea254cfcbf3ce270e",
    "ladder_s7_n10": "9d44bf9a019bfb725270577971e42164c4094ac2e605c5b37b43d045e1047662",
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
