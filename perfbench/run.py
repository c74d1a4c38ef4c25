"""defaultlab benchmark: time to a verified verdict, end to end and per layer.

    python3 perfbench/run.py --workload mc-verify --seed 3 --seconds 30 --trace 0

Each battery is one CLI subcommand in a fresh, single-threaded process
(`DEFAULTLAB_THREADS=1`), one at a time: a closed loop with one client.
With `--trace 0` batteries repeat until `--seconds` is used up and the
end-to-end metrics are medians over them.  With `--trace 1` one untraced and
one traced battery run and the per-layer metrics come from the traced one.
`--workload all` runs every workload in turn and prints each one's metrics.

Every battery is checked: exit code 0, `pass` true in summary.json, and the
sha256 of every output file against perfbench/reference.json (a diagnostic
only, reported as outputs.digest_match).  Human-readable lines, including
the environment, go to stdout first; the last line is one JSON object.
See perfbench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from tracer import now

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"

# set-up samples per untraced run; batteries count, probes top up the rest
MIN_SETUP_SAMPLES = 3
# every run must end within 180 s; a child still running at this point is killed
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand
    battery: str  # function whose first call ends set-up
    args: tuple  # further CLI arguments
    # (block, key, value) edits of the default config, passed as a config file
    config: tuple = ()


# BENCHMARK.json names all but polarize, whose one battery per run is too
# unsteady to bound (README.md); it stays runnable by name and in "all"
WORKLOADS = {
    "mc-verify": Workload("verify-mc", "suites.mc_suite", ("--paths", "10000")),
    "tree-verify": Workload("verify-tree", "suites.tree_suite", (), (("tree", "depth", 10),)),
    "tree-export": Workload("build-family", "family.build_family", (), (("tree", "depth", 10),)),
    "polarize": Workload("polarize", "suites.polarize_suite", ("--paths", "10000")),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["DEFAULTLAB_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(seed: int, threads) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "seed": seed,
    }


def config_args(name: str, wl: Workload) -> list:
    if not wl.config:
        return []
    sys.path.insert(0, str(SRC))
    try:
        from defaultlab.config import default_config
    finally:
        sys.path.remove(str(SRC))
    cfg = default_config()
    for block, key, value in wl.config:
        cfg[block][key] = value
    path = WORK / f"config-{name}.json"
    path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    return ["--config", str(path)]


def digests(out_dir: Path) -> dict:
    out = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[path.relative_to(out_dir).as_posix()] = h.hexdigest()
    return out


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


class Runner:
    """Launches batteries of one workload and seed, one process at a time."""

    def __init__(self, name: str, seed: int, wl: Workload | None = None):
        self.name = name
        self.wl = wl or WORKLOADS[name]
        self.seed = seed
        self.started = now()
        self.count = 0
        WORK.mkdir(exist_ok=True)
        self.cfg_args = config_args(name, self.wl)
        ref = load_reference().get(name, {})
        self.expected_checks = ref.get("checks")
        self.reference = ref.get("seeds", {}).get(str(seed))

    def warm_up(self) -> None:
        # the first import in a checkout compiles the package; users pay it once
        subprocess.run(
            [sys.executable, "-c", "import defaultlab.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, timeout=60,
        )

    def battery(self, traced=False, setup_only=False) -> dict:
        self.count += 1
        tag = f"{self.name}-{self.count}"
        out_dir = WORK / tag
        result_path = WORK / f"{tag}.json"
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--battery", self.wl.battery,
               "--result", str(result_path)]
        if traced:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--stop-at-battery")
        cmd += ["--", self.wl.command, "--seed", str(self.seed), "--out", str(out_dir)]
        cmd += self.cfg_args + list(self.wl.args)
        timeout = max(1.0, RUN_DEADLINE_S - (now() - self.started))
        # start every battery with no dirty pages left by the one before
        # (tree-export writes 28 MB), so writeback does not land in its time
        os.sync()
        t0 = now()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=timeout)
            launched_ok = proc.returncode == 0
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            launched_ok, stderr = False, "timed out"
        rec = {"ok": False, "checks": 0, "failed": 0, "digests": {}}
        if launched_ok and result_path.exists():
            res = json.loads(result_path.read_text(encoding="utf-8"))
            marks = res["marks"]
            rec.update(
                exit_code=res["exit_code"],
                wall_s=marks["end"] - t0,
                setup_s=marks["battery"] - t0 if "battery" in marks else None,
                import_s=marks["import_end"] - marks["import_start"],
                peak_rss_mb=res["maxrss_mb"],
                threads=res["threads"],
                trace=res.get("trace"),
            )
            result_path.unlink()
        else:
            rec["exit_code"] = None
            print(f"# {tag}: child failed: {stderr.strip()[-500:]}", file=sys.stderr)
        if setup_only:
            rec["ok"] = rec.get("setup_s") is not None
        else:
            self._check(rec, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec

    def _check(self, rec: dict, out_dir: Path) -> None:
        summary_path = out_dir / self.wl.command / "summary.json"
        if summary_path.exists():
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            rec["checks"] = len(summary["checks"])
            rec["failed"] = sum(1 for c in summary["checks"] if not c["pass"])
            rec["ok"] = rec["exit_code"] == 0 and summary["pass"] is True
            rec["digests"] = digests(out_dir)
        if not rec["ok"] and rec["failed"] == 0:
            # no summary, or an exit code the summary does not explain:
            # every check of the battery counts as failed
            rec["checks"] = rec["checks"] or self.expected_checks or 1
            rec["failed"] = rec["checks"]

    def digest_match(self, recs: list) -> tuple:
        """Share of output files whose sha256 equals the reference, and which
        reference was used: the recorded one for this seed, else the first
        battery of this run."""
        ref, kind = self.reference, "recorded"
        if ref is None:
            ref, kind = recs[0]["digests"], "first-battery"
        total = hits = 0
        for rec in recs:
            names = set(ref) | set(rec["digests"])
            total += len(names)
            hits += sum(1 for n in names if ref.get(n) is not None and ref.get(n) == rec["digests"].get(n))
        return (hits / total if total else 0.0), kind


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced run: batteries until `seconds` is used, medians reported."""
    recs = []
    t_start = now()
    while True:
        recs.append(runner.battery())
        if "wall_s" not in recs[-1]:
            break  # the child crashed or timed out; a failed check still times
        elapsed = now() - t_start
        mean = elapsed / len(recs)
        if elapsed + mean > seconds or elapsed + mean > RUN_DEADLINE_S - 30.0:
            break
    timed = [r for r in recs if "wall_s" in r]
    setups = [r["setup_s"] for r in timed if r["setup_s"] is not None]
    while timed and len(setups) < MIN_SETUP_SAMPLES:
        probe = runner.battery(setup_only=True)
        if not probe["ok"]:
            break
        setups.append(probe["setup_s"])
    metrics = {}
    if timed and setups:
        metrics = {
            "wall_s": _metric(statistics.median(r["wall_s"] for r in timed), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
        }
    match, kind = runner.digest_match(timed) if timed else (0.0, "none")
    return {
        "recs": recs,
        "metrics": metrics,
        "diagnostics": {
            "batteries": len(recs),
            "setup_samples": len(setups),
            "checks_failed_frac": _failed_frac(recs),
            "outputs.digest_match": match,
            "digest_reference": kind,
            "wall_s_all": [r.get("wall_s") for r in recs],
            "setup_s_all": setups,
        },
    }


def _failed_frac(recs) -> float:
    attempted = sum(r["checks"] for r in recs)
    return sum(r["failed"] for r in recs) / attempted if attempted else 1.0


def layer_metrics(plain: dict, traced: dict, battery: str) -> dict:
    """Per-layer metrics of one traced battery; see README.md for the map."""
    tr = traced["trace"]
    fn = tr["functions"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name, key):
        return fn.get(name, zero).get(key, 0)

    m = {}

    def put(name, value, unit):
        m[name] = _metric(value, unit)

    for name in ("family.solve_natural", "family.build_family", "family.kappa_values",
                 "family.one_step_atom_residuals", "coefficients.evaluate_f",
                 "coefficients.evaluate_f_x", "coefficients.check_pair_conditions",
                 "coefficients.build_y", "coefficients.smooth_clamp",
                 "coefficients.smooth_clamp_deriv", "default_measure.enlargement_compensator",
                 "default_measure.sample_tau", "default_measure.absolute_continuity_check",
                 "default_measure.polarization_experiment", "tree.build_product_measure",
                 "tree.verify_im_axioms", "grids.sample_bundle", "survival.generate_z",
                 "config.validate_config", "ioutil.write_csv", "ioutil.write_json",
                 "suites.build_tree_world", "suites.build_mc_world", "cli.main"):
        put(f"{name}.self_s", get(name, "self_s"), "s")
    for name in ("family.solve_natural", "coefficients.evaluate_f",
                 "coefficients.check_pair_conditions", "default_measure.enlargement_compensator"):
        put(f"{name}.calls", get(name, "calls"), "count")
    put("family.solve_natural.state_cells", get("family.solve_natural", "state_cells"), "count")
    for name in ("coefficients.evaluate_f", "coefficients.evaluate_f_x",
                 "coefficients.smooth_clamp", "coefficients.smooth_clamp_deriv"):
        put(f"{name}.points", get(name, "points"), "count")
    for name in ("family.build_family", "coefficients.build_y"):
        put(f"{name}.rss_rise_mb", get(name, "rss_rise_mb"), "MB")
    put("ioutil.write_csv.rows", get("ioutil.write_csv", "rows"), "count")
    put("ioutil.write_csv.bytes", get("ioutil.write_csv", "bytes"), "B")

    members = tr["members"]
    put("family.members", members, "count")
    put("family.solves_per_member",
        get("family.solve_natural", "calls") / members if members else 0.0, "ratio")
    f_points = get("coefficients.evaluate_f", "points")
    put("coefficients.evaluate_f.ns_per_point",
        1e9 * get("coefficients.evaluate_f", "total_s") / f_points if f_points else 0.0, "ns")
    put("coefficients.evaluate_f.points_per_state",
        f_points / tr["member_cells"] if tr["member_cells"] else 0.0, "ratio")

    # tree-export has no suites battery: the CLI calls build_family directly
    put("suites.battery.self_s", get(battery, "self_s") if battery.startswith("suites.") else 0.0, "s")
    put("import_s", traced["import_s"], "s")
    put("trace.wall_s", traced["wall_s"], "s")
    put("trace.spans", tr["spans"], "count")
    put("trace.coverage", (traced["import_s"] + tr["root_s"]) / traced["wall_s"], "ratio")
    put("trace.overhead_s", traced["wall_s"] - plain["wall_s"], "s")
    return m


def trace_run(runner: Runner) -> dict:
    plain = runner.battery()
    traced = runner.battery(traced=True)
    recs = [plain, traced]
    metrics = {}
    match, kind = 0.0, "none"
    if "wall_s" in plain and traced.get("trace"):
        metrics = layer_metrics(plain, traced, runner.wl.battery)
        match, kind = runner.digest_match(recs)
        metrics["outputs.digest_match"] = _metric(match, "ratio")
    return {
        "recs": recs,
        "metrics": metrics,
        "diagnostics": {
            "checks_failed_frac": _failed_frac(recs),
            "outputs.digest_match": match,
            "digest_reference": kind,
        },
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(name, seed)
    runner.warm_up()
    res = trace_run(runner) if trace else measure(runner, seconds)
    recs = res["recs"]
    res["correct"] = bool(recs) and all(r["ok"] for r in recs)
    res["attempted"] = max(1, sum(r["checks"] for r in recs))
    res["failed"] = sum(r["failed"] for r in recs)
    res["env"] = environment(seed, next((r["threads"] for r in recs if "threads" in r), None))
    res["workload"] = name
    record = {k: v for k, v in res.items() if k != "recs"}
    record["batteries"] = [{k: v for k, v in r.items() if k != "trace"} for r in recs]
    record["traces"] = [r["trace"] for r in recs if r.get("trace")]
    out = WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return res


def print_lines(res: dict) -> None:
    name = res["workload"]
    for key, met in sorted(res["metrics"].items()):
        print(f"{name} {key} = {met['value']:.6g} {met['unit']}")
    for key, val in sorted(res["diagnostics"].items()):
        if not isinstance(val, list):
            print(f"{name} {key} = {val}")
    print(f"{name} correct = {res['correct']} attempted = {res['attempted']} failed = {res['failed']}")
    print(f"{name} env = {json.dumps(res['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "defaultlab" / "cli.py").is_file():
        print(f"no defaultlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_one(name, args.seed, args.seconds, bool(args.trace))
        print_lines(res)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
