"""Config-driven command line for the default-time laboratory.

Subcommands build worlds from a JSON config, run a verification suite or
export data, and write a JSON summary plus CSV tables into the output
directory.  Outputs carry no timestamps or environment details, so a
given config and seed produce byte-identical files.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config
error, 3 internal error.  The thread count for numpy's BLAS backend can
be pinned with the DEFAULTLAB_THREADS environment variable; it affects
scheduling only, never results.
"""

import os


def _configure_threads():
    val = os.environ.get("DEFAULTLAB_THREADS")
    if val:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, val)


_configure_threads()

import argparse
import sys

import numpy as np

from . import suites
from .config import apply_overrides, default_config, load_config, validate_config
from .default_measure import sample_tau
from .errors import ConfigurationError, DefaultLabError, SolverInconsistencyError
from .family import build_family
from .grids import philox_stream
from .ioutil import BlockTable, write_csv, write_json

SUBCOMMANDS = (
    "verify-tree",
    "verify-mc",
    "build-family",
    "sample-tau",
    "regularity",
    "polarize",
)


def _summary(report, cfg):
    return {
        "suite": report["suite"],
        "checks": report["checks"],
        "pass": report["pass"],
        "residuals": report["residuals"],
        "seed": cfg.seed,
        "config_hash": cfg.hash,
    }


def _emit(report, cfg, name):
    out_dir = os.path.join(cfg.out_dir, name)
    write_json(os.path.join(out_dir, "summary.json"), _summary(report, cfg))
    if "csv" in cfg.formats:
        for table, (header, rows) in sorted(report.get("tables", {}).items()):
            write_csv(os.path.join(out_dir, f"{table}.csv"), header, rows)
    return 0 if report["pass"] else 1


def _merge(name, reports):
    checks, residuals, tables = [], {}, {}
    for prefix, rep in reports:
        for c in rep["checks"]:
            row = dict(c)
            if prefix:
                row["name"] = f"{prefix}/{row['name']}"
            checks.append(row)
        for key, val in rep["residuals"].items():
            residuals[f"{prefix}/{key}" if prefix else key] = val
        for key, val in rep.get("tables", {}).items():
            tables[f"{prefix}_{key}" if prefix else key] = val
    return {
        "suite": name,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "residuals": residuals,
        "tables": tables,
    }


def _cmd_verify_tree(cfg):
    tree, model, pair = suites.build_tree_world(cfg)
    rep = suites.tree_suite(tree, model, pair, cfg.tol_exact, atom_tol=cfg.atom_tol)
    return _emit(rep, cfg, "verify-tree")


def _cmd_verify_mc(cfg):
    bundle, model, pair = suites.build_mc_world(cfg)
    rep = suites.mc_suite(
        bundle, model, pair, cfg.seed,
        tol_exact=cfg.tol_exact, sigma_mult=cfg.sigma_multiplier, atom_tol=cfg.atom_tol,
    )
    return _emit(rep, cfg, "verify-mc")


def _family(cfg, pair, model, **kw):
    """The family at the run's exact tolerance and its family_axioms/* rows.

    The family is None when an axiom fails; the rows then hold the report
    of the failing pass, to be written as the run's only checks.
    """
    try:
        family = build_family(pair, model, tol=cfg.tol_exact, **kw)
    except SolverInconsistencyError as exc:
        return None, suites._family_rows(exc.report, cfg.tol_exact)
    return family, suites._family_rows(family.report, cfg.tol_exact)


def _cmd_build_family(cfg):
    tree, model, pair = suites.build_tree_world(cfg)
    family, checks = _family(cfg, pair, model)
    if family is None:
        return _emit(suites._suite("build-family", checks), cfg, "build-family")

    def blocks():
        for u in family.u_indices:
            vals = family.values(u)
            for k in range(u, tree.depth + 1):
                yield (u, k), (np.arange(vals[k].size), vals[k])

    table = (("u_index", "t_index", "node", "value"), BlockTable(blocks))
    return _emit(suites._suite("build-family", checks, {"family": table}), cfg, "build-family")


def _cmd_sample_tau(cfg):
    bundle, model, pair = suites.build_mc_world(cfg)
    family, checks = _family(cfg, pair, model, keep="terminal")
    if family is None:
        return _emit(suites._suite("sample-tau", checks), cfg, "sample-tau")
    samples = sample_tau(family, model, philox_stream(cfg.seed, "tau-samples"))
    checks.append(suites._tau_beyond_row(samples, model, cfg.sigma_multiplier))
    tau = samples.tau_u()
    columns = (
        np.arange(samples.n_paths),
        tau,
        np.where(tau >= 0, bundle.grid.times[tau], -1.0),
        samples.uniform,
    )
    table = (("path", "tau_index", "tau_time", "uniform"), BlockTable(lambda: [((), columns)]))
    return _emit(suites._suite("sample-tau", checks, {"samples": table}), cfg, "sample-tau")


def _cmd_regularity(cfg):
    rep_r = suites.regularity_suite(
        cfg.spec, seed=cfg.seed, scale=cfg.scale, ladder_depth=cfg.ladder_depth
    )
    rep_c = suites.corollary_suite(cfg.spec, seed=cfg.seed, ladder_depth=cfg.ladder_depth)
    rep = _merge("regularity", [("", rep_r), ("corollary", rep_c)])
    return _emit(rep, cfg, "regularity")


def _cmd_polarize(cfg):
    rep = suites.polarize_suite(n_paths=cfg.paths, seed=cfg.seed, tol_exact=cfg.tol_exact)
    # a family that fails its axioms leaves no experiment, only its rows
    summary_extra = rep.pop("experiment", None)
    code = _emit(rep, cfg, "polarize")
    if summary_extra is not None:
        write_json(os.path.join(cfg.out_dir, "polarize", "experiment.json"), summary_extra)
    return code


_HANDLERS = {
    "verify-tree": _cmd_verify_tree,
    "verify-mc": _cmd_verify_mc,
    "build-family": _cmd_build_family,
    "sample-tau": _cmd_sample_tau,
    "regularity": _cmd_regularity,
    "polarize": _cmd_polarize,
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="defaultlab",
        description="simulation and verification lab for one-default models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--seed", type=int, help="Monte Carlo seed override")
        p.add_argument("--paths", type=int, help="Monte Carlo path count override")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = load_config(args.config) if args.config else default_config()
        raw = apply_overrides(raw, seed=args.seed, paths=args.paths, out=args.out)
        cfg = validate_config(raw)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](cfg)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DefaultLabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
