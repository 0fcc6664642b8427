"""Batch experiment runner.

Subcommands::

    optstab run <config.json>     run one experiment, write CSV tables + summary
    optstab list-instances        list catalog instance names
    optstab describe <instance>   one-line description of a catalog instance

Configs are JSON documents with a mandatory ``kind`` field; unknown fields
are rejected and a ``seed`` is mandatory for every kind that samples.
Given identical configs (and seeds), re-runs produce byte-identical tables.
Counts, seeds and sweep bounds must be JSON integers; a value that is not
one, or that would give an empty sweep or an instance outside its parameter
range, is a config error.
``summary.json`` is RFC 8259 JSON: +-inf appear as the strings "inf" / "-inf".
Exit codes: 0 all checks pass, 1 check failure, 2 config error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import instances
from .distances import absolute, euclidean
from .linear import (affine_family, decompose, hoffman_check, penrose_table,
                     pseudo_inverse)
from .ladder import build_ladder
from .optima import VerdictReport, check_finite_stability
from .parametric import certify_value_lipschitz
from .scheme import run_scheme
from .sets import hausdorff, load_set


class ConfigError(ValueError):
    pass


def _write_table(path, columns, rows) -> None:
    VerdictReport(columns, rows).to_csv(path)


def _require(cfg: dict, kind: str, required: set, optional: set) -> None:
    keys = set(cfg) - {"kind"}
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{kind}: unknown config fields {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ConfigError(f"{kind}: missing config fields {sorted(missing)}")


def _int_at_least(cfg: dict, key: str, default, least: int) -> int:
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} = {value!r} is not an integer")
    if value < least:
        raise ConfigError(f"{key} = {value} is below {least}")
    return value


def _seeded_rng(cfg: dict) -> np.random.Generator:
    return np.random.default_rng(_int_at_least(cfg, "seed", None, 0))


def _json_value(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def _exp_counterexample(cfg: dict, out_dir: str):
    _require(cfg, "counterexample", {"instance"},
             {"j_min", "j_max", "K", "out_dir"})
    name = cfg["instance"]
    if name not in ("ce33", "ce34"):
        raise ConfigError("counterexample instance must be ce33 or ce34")
    K = _int_at_least(cfg, "K", 60, 2)
    j_min = _int_at_least(cfg, "j_min", 2, 2)
    j_max = _int_at_least(cfg, "j_max", 50, j_min)
    rows = []
    ok = True
    for j in range(j_min, j_max + 1):
        try:
            e = instances.build(name, K=K, j=j)
        except ValueError as exc:  # j outside the range the instance allows for K
            raise ConfigError(f"{name} with K = {K}, j = {j}: {exc}") from exc
        g = dict((q, a) for q, _, a in e.goldens)
        verdict = (g["INF_f(A_j)"] == -1.0 and g["SUP_f(A_j)"] == 1.0
                   and g["INF_f(A)"] == 0.0 and g["SUP_f(A)"] == 0.0
                   and abs(g["D_H(A, A_j)"] - 1.0 / j) < 1e-12)
        ok = ok and verdict
        rows.append(dict(j=j, inf_Aj=g["INF_f(A_j)"], sup_Aj=g["SUP_f(A_j)"],
                         D_H=g["D_H(A, A_j)"], expected_D_H=1.0 / j,
                         verdict="pass" if verdict else "fail"))
    _write_table(os.path.join(out_dir, f"counterexample_{name}.csv"),
                 ["j", "inf_Aj", "sup_Aj", "D_H", "expected_D_H", "verdict"], rows)
    return ok, {"instance": name, "rows": len(rows)}


def _exp_scheme(cfg: dict, out_dir: str):
    _require(cfg, "scheme", {"instance"}, {"m_min", "m_max", "out_dir"})
    if cfg["instance"] != "disk_polygon":
        raise ConfigError("scheme instance must be disk_polygon")
    m_min = _int_at_least(cfg, "m_min", 3, 3)
    m_seq = list(range(m_min, _int_at_least(cfg, "m_max", 256, m_min) + 1))
    S = instances.disk_polygon_scheme(m_seq)
    cert = run_scheme(S)
    rows = []
    ok = True
    for m, r in zip(m_seq, cert.rows):
        expected = 2.0 - math.cos(math.pi / m)
        good = (abs(r["sigma_k"] - expected) < 1e-12
                and r["bracket_lo"] <= 1.0 <= r["bracket_hi"])
        ok = ok and good
        rows.append(dict(m=m, h_k=r["h_k"], sigma_k=r["sigma_k"],
                         tau_k=r["tau_k"], budget_k=r["budget_k"],
                         bracket_lo=r["bracket_lo"], bracket_hi=r["bracket_hi"],
                         verdict="pass" if good else "fail"))
    ok = ok and cert.contains(1.0)
    _write_table(os.path.join(out_dir, "scheme_disk.csv"),
                 ["m", "h_k", "sigma_k", "tau_k", "budget_k",
                  "bracket_lo", "bracket_hi", "verdict"], rows)
    return ok, {"final_bracket_width": cert.final_width}


def _exp_stability(cfg: dict, out_dir: str):
    _require(cfg, "stability", {"seed"}, {"n_trials", "out_dir"})
    rng = _seeded_rng(cfg)
    n = _int_at_least(cfg, "n_trials", 100, 1)
    d = absolute()
    rows = []
    ok = True
    for i in range(n):
        f = instances.random_piecewise_objective(rng)
        A = instances.random_cloud(rng)
        Ap = instances.random_cloud(rng)
        rep = check_finite_stability(f, d, [(A, Ap)])
        r = rep.rows[0]
        ok = ok and rep.passed
        rows.append(dict(trial=i, D_H=r["D_H"], sup_A=r["sup_A"],
                         sup_Ap=r["sup_Ap"], slack=r["slack"],
                         verdict=r["verdict"]))
    _write_table(os.path.join(out_dir, "stability.csv"),
                 ["trial", "D_H", "sup_A", "sup_Ap", "slack", "verdict"], rows)
    return ok, {"n_trials": n}


def _exp_hoffman(cfg: dict, out_dir: str):
    _require(cfg, "hoffman", {"seed"}, {"n_triples", "max_dim", "out_dir"})
    rng = _seeded_rng(cfg)
    n = _int_at_least(cfg, "n_triples", 50, 1)
    max_dim = _int_at_least(cfg, "max_dim", 6, 1)
    rows = []
    ok = True
    for i in range(n):
        L = instances.random_rank_deficient_matrix(rng, max_dim)
        lm = decompose(L)
        if lm.rank == 0:
            continue
        egi = pseudo_inverse(lm)
        fam = affine_family(lm, egi)
        s = lm.matrix @ rng.standard_normal(lm.matrix.shape[1])
        t = lm.matrix @ rng.standard_normal(lm.matrix.shape[1])
        rep = hoffman_check(fam, egi, lambda y: float(np.linalg.norm(y)),
                            [(s, t)], rng=rng)
        r = rep.rows[0]
        ok = ok and rep.passed
        rows.append(dict(triple=i, D_H=r["D_H"], bound=r["bound"],
                         slack=r["slack"], verdict=r["verdict"]))
    _write_table(os.path.join(out_dir, "hoffman.csv"),
                 ["triple", "D_H", "bound", "slack", "verdict"], rows)
    return ok, {"n_triples": n, "rows": len(rows), "skipped_rank0": n - len(rows)}


def _exp_egi(cfg: dict, out_dir: str):
    _require(cfg, "egi", {"seed"}, {"n_matrices", "max_dim", "out_dir"})
    rng = _seeded_rng(cfg)
    n = _int_at_least(cfg, "n_matrices", 50, 1)
    max_dim = _int_at_least(cfg, "max_dim", 8, 1)
    mats = [instances.random_rank_deficient_matrix(rng, max_dim) for _ in range(n)]
    rank, resid, fro = penrose_table(mats)
    good = resid.max(axis=1) < 1e-9 * (1.0 + fro)
    ok = bool(good.all())
    rows = [dict(matrix=i, shape=f"{L.shape[0]}x{L.shape[1]}", rank=int(rank[i]),
                 worst_residual=float(resid[i].max()),
                 verdict="pass" if good[i] else "fail")
            for i, L in enumerate(mats)]
    _write_table(os.path.join(out_dir, "egi.csv"),
                 ["matrix", "shape", "rank", "worst_residual", "verdict"], rows)
    return ok, {"n_matrices": n}


def _exp_ladder(cfg: dict, out_dir: str):
    _require(cfg, "ladder", {"seed"}, {"n_levels", "out_dir"})
    rng = _seeded_rng(cfg)
    n_levels = _int_at_least(cfg, "n_levels", 10, 1)
    P = instances.quartic_problem()
    result = build_ladder(P, list(range(1, n_levels + 1)), rng=rng)
    rows = []
    ok = result.passed
    for k, v in enumerate(result.verification, start=1):
        rows.append(dict(k=k, lambda_k=v["lambda"], t_k=v["t"],
                         expected_t=math.sqrt(k), worst_ratio=v["worst_ratio"],
                         verdict="pass" if v["verified"] else "fail"))
        ok = ok and abs(v["t"] - math.sqrt(k)) < 1e-6
    _write_table(os.path.join(out_dir, "ladder.csv"),
                 ["k", "lambda_k", "t_k", "expected_t", "worst_ratio", "verdict"],
                 rows)
    return ok, {"n_levels": n_levels}


def _exp_parametric(cfg: dict, out_dir: str):
    _require(cfg, "parametric", {"seed"}, {"n_pairs", "out_dir"})
    rng = _seeded_rng(cfg)
    n_pairs = _int_at_least(cfg, "n_pairs", 50, 1)
    entry = instances.build("affine_whole")
    fam = entry.objects["family"]
    d_param = absolute()
    pf = fam.as_param_family(d_param, alpha=entry.objects["egi"].constant)
    from .parametric import ValueFunction
    V = ValueFunction(mode="inf", family=pf, objective=entry.objects["objective"])
    pairs = [(float(a), float(b))
             for a, b in rng.uniform(-5, 5, size=(n_pairs, 2))]
    rep = certify_value_lipschitz(V, pairs, rng=rng)
    rep.to_csv(os.path.join(out_dir, "parametric.csv"))
    return rep.passed, {"n_pairs": len(pairs)}


def _exp_hausdorff(cfg: dict, out_dir: str):
    _require(cfg, "hausdorff", {"set_a", "set_b", "seed"}, {"dim", "out_dir"})
    try:
        A, B = load_set(cfg["set_a"]), load_set(cfg["set_b"])
    except ValueError as exc:  # a set file that describes no valid set
        raise ConfigError(f"hausdorff: {exc}") from exc
    rng = _seeded_rng(cfg)
    dim = _int_at_least(cfg, "dim", A.dim, 1)
    if {A.dim, B.dim} != {dim}:
        raise ConfigError(f"hausdorff: sets of dim {A.dim} and {B.dim} with dim {dim}")
    d = absolute() if dim == 1 else euclidean(dim)
    rep = hausdorff(d, A, B, rng=rng)
    rows = [dict(quantity="D_H", value=rep.value, mode=rep.mode)]
    _write_table(os.path.join(out_dir, "hausdorff.csv"),
                 ["quantity", "value", "mode"], rows)
    return True, {"D_H": rep.value, "mode": rep.mode}


_KINDS = {
    "counterexample": _exp_counterexample,
    "scheme": _exp_scheme,
    "stability": _exp_stability,
    "hoffman": _exp_hoffman,
    "egi": _exp_egi,
    "ladder": _exp_ladder,
    "parametric": _exp_parametric,
    "hausdorff": _exp_hausdorff,
}


def run_config(path: str) -> int:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        kind = cfg.get("kind")
        if kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        out_dir = cfg.get("out_dir", ".")
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, json.JSONDecodeError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        ok, summary = _KINDS[kind](cfg, out_dir)
        summary = {k: _json_value(v) for k, v in
                   dict(kind=kind, verdict="pass" if ok else "fail", **summary).items()}
        text = json.dumps(summary, indent=2, sort_keys=True, default=float, allow_nan=False)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - report and map to exit code 3
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        fh.write(text)
    print(json.dumps(summary, sort_keys=True, default=float, allow_nan=False))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="optstab", description="batch experiments over the library")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    sub.add_parser("list-instances", help="list catalog instances")
    p_desc = sub.add_parser("describe", help="describe a catalog instance")
    p_desc.add_argument("instance")
    args = parser.parse_args(argv)

    if args.command == "run":
        return run_config(args.config)
    if args.command == "list-instances":
        for name in instances.catalog_names():
            print(name)
        return 0
    if args.command == "describe":
        try:
            print(f"{args.instance}: {instances.describe(args.instance)}")
        except instances.CatalogError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
