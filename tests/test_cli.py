import json
import math

import pytest

from optstab.cli import main


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_list_instances(capsys):
    assert main(["list-instances"]) == 0
    out = capsys.readouterr().out
    assert "ce33" in out and "disk_polygon" in out


def test_describe(capsys):
    assert main(["describe", "ce34"]) == 0
    assert "axis segments" in capsys.readouterr().out
    assert main(["describe", "nope"]) == 2


def test_run_counterexample_sweep(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"kind": "counterexample", "instance": "ce33",
                  "j_min": 2, "j_max": 6, "K": 20,
                  "out_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 0
    table = (tmp_path / "out" / "counterexample_ce33.csv").read_text()
    assert table.splitlines()[0] == "j,inf_Aj,sup_Aj,D_H,expected_D_H,verdict"
    assert table.count("pass") == 5


def test_run_scheme(tmp_path):
    cfg = _write(tmp_path, "s.json",
                 {"kind": "scheme", "instance": "disk_polygon",
                  "m_min": 3, "m_max": 16, "out_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["verdict"] == "pass"


def test_run_invalid_kind_exit_2(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"kind": "nope"})
    assert main(["run", cfg]) == 2


def test_run_unknown_field_exit_2(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"kind": "egi", "seed": 1, "zzz": 1})
    assert main(["run", cfg]) == 2


def test_run_missing_seed_exit_2(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"kind": "stability", "n_trials": 3})
    assert main(["run", cfg]) == 2


def test_run_missing_config_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


def _raw(tmp_path, content):
    p = tmp_path / "c.json"
    p.write_bytes(content)
    return str(p)


def _hausdorff_cfg(tmp_path, set_a):
    from optstab.sets import FiniteCloud, save_set
    save_set(FiniteCloud([0.5]), tmp_path / "b.json")
    doc = {"kind": "hausdorff", "set_a": set_a, "set_b": str(tmp_path / "b.json"),
           "seed": 0, "out_dir": str(tmp_path / "out")}
    return _raw(tmp_path, json.dumps(doc).encode())


@pytest.mark.parametrize("make", [
    lambda tmp_path: _raw(tmp_path, b"[1, 2]"),
    lambda tmp_path: _raw(tmp_path, b'{"kind": "egi", "seed": 1, "out_dir": "\xff"}'),
    lambda tmp_path: _raw(tmp_path, b'{"kind": "egi", "seed": 1, "out_dir": 5}'),
    lambda tmp_path: _raw(tmp_path, b'{"kind": "egi", "seed": 1, "out_dir": null}'),
    lambda tmp_path: _hausdorff_cfg(tmp_path, str(tmp_path / "absent.json")),
    lambda tmp_path: _hausdorff_cfg(tmp_path, str(tmp_path)),
    lambda tmp_path: _hausdorff_cfg(tmp_path, None),
], ids=["top-level-list", "not-utf8", "out_dir-int", "out_dir-null", "set_a-missing",
        "set_a-directory", "set_a-null"])
def test_malformed_config_exit_2(tmp_path, capsys, make):
    # a config that cannot be read as one is a config error, not a check
    # failure (1) or an internal error (3)
    assert main(["run", make(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out" / "summary.json").exists()


def test_determinism_byte_identical(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        cfg = _write(tmp_path, f"{sub}.json",
                     {"kind": "hoffman", "seed": 42, "n_triples": 20,
                      "max_dim": 5, "out_dir": str(tmp_path / sub)})
        assert main(["run", cfg]) == 0
        outputs.append((tmp_path / sub / "hoffman.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_run_hausdorff_kind(tmp_path):
    from optstab.sets import FiniteCloud, save_set
    save_set(FiniteCloud([0.0, 1.0]), tmp_path / "a.json")
    save_set(FiniteCloud([0.5]), tmp_path / "b.json")
    cfg = _write(tmp_path, "h.json",
                 {"kind": "hausdorff", "set_a": str(tmp_path / "a.json"),
                  "set_b": str(tmp_path / "b.json"), "seed": 0,
                  "out_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["D_H"] == 0.5


@pytest.mark.parametrize("doc", [
    {"kind": "axis_segments", "dim": 1, "extents": {"0": [1.5, True]}},
    {"kind": "affine_slab", "particular": [0.5], "kernel_basis": [[1.0]], "box_halfwidth": 1e3},
], ids=["axis_segments", "affine_slab"])
def test_hausdorff_kind_is_exact_on_one_dimensional_sets(tmp_path, doc):
    # absolute() measures 1-D sets: the Euclidean closed forms apply, so two
    # copies of a set are 0 apart, exactly
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(doc))
    cfg = _write(tmp_path, "h.json",
                 {"kind": "hausdorff", "set_a": str(tmp_path / "a.json"),
                  "set_b": str(tmp_path / "b.json"), "seed": 5,
                  "out_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 0
    table = (tmp_path / "out" / "hausdorff.csv").read_text()
    assert table.splitlines() == ["quantity,value,mode", "D_H,0.0,exact"]


def test_run_ladder_and_parametric(tmp_path):
    cfg = _write(tmp_path, "l.json",
                 {"kind": "ladder", "seed": 0, "n_levels": 3,
                  "out_dir": str(tmp_path / "outl")})
    assert main(["run", cfg]) == 0
    cfg = _write(tmp_path, "p.json",
                 {"kind": "parametric", "seed": 0, "n_pairs": 10,
                  "out_dir": str(tmp_path / "outp")})
    assert main(["run", cfg]) == 0


def test_hoffman_summary_counts_rows_and_rank0_skips(tmp_path):
    cfg = _write(tmp_path, "h.json",
                 {"kind": "hoffman", "seed": 1, "n_triples": 20,
                  "out_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    rows = (tmp_path / "out" / "hoffman.csv").read_text().strip().splitlines()[1:]
    assert summary["rows"] == len(rows)
    assert summary["skipped_rank0"] == 20 - len(rows) > 0


def test_hausdorff_kind_refuses_mismatched_dim(tmp_path):
    from optstab.sets import IntervalUnion, save_set
    save_set(IntervalUnion([(0.0, 1.0)]), tmp_path / "a.json")
    cfg = _write(tmp_path, "h.json",
                 {"kind": "hausdorff", "set_a": str(tmp_path / "a.json"),
                  "set_b": str(tmp_path / "a.json"), "seed": 0, "dim": 2,
                  "out_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 2


def test_hausdorff_kind_rejects_nan_cloud(tmp_path, capsys):
    # the cloud refuses NaN when load_set builds it: a config error, as for a NaN slab
    (tmp_path / "a.json").write_text('{"kind": "finite_cloud", "points": [[NaN, 0.0]]}')
    (tmp_path / "b.json").write_text('{"kind": "finite_cloud", "points": [[0.0, 0.0]]}')
    cfg = _write(tmp_path, "h.json",
                 {"kind": "hausdorff", "set_a": str(tmp_path / "a.json"),
                  "set_b": str(tmp_path / "b.json"), "seed": 0,
                  "out_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 2
    assert "config error: hausdorff: cloud points must not be NaN" in capsys.readouterr().err
    assert not (tmp_path / "out" / "hausdorff.csv").exists()


def test_hausdorff_kind_refuses_a_slab_basis_of_another_dim(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps(
        {"kind": "affine_slab", "particular": [0, 0, 0], "kernel_basis": [[1, 2, 3]],
         "box_halfwidth": 1e3}))
    (tmp_path / "b.json").write_text('{"kind": "finite_cloud", "points": [[0.0, 0.0, 0.0]]}')
    cfg = _write(tmp_path, "h.json",
                 {"kind": "hausdorff", "set_a": str(tmp_path / "a.json"),
                  "set_b": str(tmp_path / "b.json"), "seed": 0,
                  "out_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "hausdorff.csv").exists()


@pytest.mark.parametrize("doc, message", [
    ({"kind": "affine_slab", "particular": [0, 0]}, "lacks the field 'kernel_basis'"),
    ({"kind": "interval_union"}, "lacks the field 'intervals'"),
    ({"kind": "interval_union", "intervals": 5}, "wrong type"),
    ([[0.0, 0.0]], "JSON object"),
    ({"kind": "affine_slab", "particular": [0.0], "kernel_basis": [[[1.0]]],
      "box_halfwidth": 1.0}, "must be a matrix"),
    ({"kind": "interval_union", "intervals": [[1.0, 1.0, False, True]]},
     "interval (1.0, 1.0] is empty"),
    ({"kind": "axis_segments", "extents": {"0": [0.0, False], "1": [0.0, False]}, "dim": 2},
     "every axis segment is the empty [0, 0)"),
    ({"kind": "axis_segments", "extents": {"0": [math.nan, True]}, "dim": 2},
     "extents must be nonnegative"),
    ({"kind": "affine_slab", "particular": [math.nan, 0.0], "kernel_basis": [[1.0], [0.0]],
      "box_halfwidth": 1.0}, "particular point must be finite"),
    ({"kind": "affine_slab", "particular": [0.0, 0.0], "kernel_basis": [[math.nan], [0.0]],
      "box_halfwidth": 1.0}, "kernel basis must be finite"),
    ({"kind": "affine_slab", "particular": [0.0, 0.0], "kernel_basis": [[1.0], [0.0]],
      "box_halfwidth": math.nan}, "half-width must not be NaN"),
], ids=["slab-without-basis", "union-without-intervals", "union-of-a-number", "list",
        "slab-basis-of-three-dims", "point-with-an-open-end", "only-empty-segments",
        "nan-extent", "nan-slab-particular", "nan-slab-kernel", "nan-slab-box"])
def test_hausdorff_kind_refuses_a_set_file_that_lacks_a_field(tmp_path, capsys, doc, message):
    (tmp_path / "a.json").write_text(json.dumps(doc))
    (tmp_path / "b.json").write_text('{"kind": "finite_cloud", "points": [[0.0, 0.0]]}')
    cfg = _write(tmp_path, "h.json",
                 {"kind": "hausdorff", "set_a": str(tmp_path / "a.json"),
                  "set_b": str(tmp_path / "b.json"), "seed": 0,
                  "out_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: hausdorff:") and message in err
    assert not (tmp_path / "out" / "hausdorff.csv").exists()


@pytest.mark.parametrize("doc", [
    {"kind": "scheme", "instance": "disk_polygon", "m_min": 5, "m_max": 4},
    {"kind": "scheme", "instance": "disk_polygon", "m_min": 2, "m_max": 4},
    {"kind": "counterexample", "instance": "ce33", "j_min": 9, "j_max": 3},
    {"kind": "counterexample", "instance": "ce33", "j_min": 1, "j_max": 3},
    {"kind": "stability", "seed": 1, "n_trials": 0},
    {"kind": "hoffman", "seed": 1, "n_triples": 0},
    {"kind": "hoffman", "seed": 1, "n_triples": 2, "max_dim": 0},
    {"kind": "egi", "seed": 1, "n_matrices": 0},
    {"kind": "egi", "seed": 1, "n_matrices": 2, "max_dim": 0},
    {"kind": "ladder", "seed": 1, "n_levels": 0},
    {"kind": "parametric", "seed": 1, "n_pairs": 0},
], ids=lambda doc: "-".join(f"{k}={v}" for k, v in doc.items() if k != "instance"))
def test_empty_or_out_of_range_sweep_exit_2(tmp_path, doc):
    cfg = _write(tmp_path, "c.json", dict(doc, out_dir=str(tmp_path / "out")))
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "out" / "summary.json").exists()


def test_summary_is_rfc8259_json_with_infinite_distance(tmp_path, capsys):
    (tmp_path / "a.json").write_text('{"kind": "finite_cloud", "points": [0.0, Infinity]}')
    (tmp_path / "b.json").write_text('{"kind": "finite_cloud", "points": [0.0]}')
    cfg = _write(tmp_path, "h.json",
                 {"kind": "hausdorff", "set_a": str(tmp_path / "a.json"),
                  "set_b": str(tmp_path / "b.json"), "seed": 0,
                  "out_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 0

    def refuse(name):
        raise ValueError(f"{name} is not RFC 8259 JSON")
    for text in ((tmp_path / "out" / "summary.json").read_text(), capsys.readouterr().out):
        assert json.loads(text, parse_constant=refuse)["D_H"] == "inf"


@pytest.mark.parametrize("doc", [
    {"kind": "stability", "seed": 1, "n_trials": "ten"},
    {"kind": "stability", "seed": 1, "n_trials": 2.5},
    {"kind": "stability", "seed": 1, "n_trials": True},
    {"kind": "stability", "seed": "one", "n_trials": 2},
    {"kind": "ladder", "seed": -1, "n_levels": 1},
    {"kind": "counterexample", "instance": "ce33", "K": 0},
    {"kind": "counterexample", "instance": "ce33", "K": 5, "j_min": 2, "j_max": 8},
    {"kind": "counterexample", "instance": "ce34", "K": 5, "j_min": 2, "j_max": 8},
], ids=lambda doc: "-".join(f"{k}={v}" for k, v in doc.items() if k != "kind"))
def test_malformed_values_exit_2(tmp_path, doc, capsys):
    # values that are not integers, and instance parameters out of range,
    # are config errors (exit 2), not internal errors (exit 3)
    cfg = _write(tmp_path, "c.json", dict(doc, out_dir=str(tmp_path / "out")))
    assert main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()
