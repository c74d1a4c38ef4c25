"""Self-test of the tracer on a tiny mc-verify (8 steps, 60000 paths).

    python3 perfbench/selftest.py

One untraced and two traced batteries at the same seed.  Passes when:
every battery passes its checks; the two traced runs give identical counts
(calls and counters of every function, family members); every output file
of both traced runs has the untraced run's sha256, so wrapping never changes
results; each traced run attributes at least 95% of its wall time to named
spans; and every layer has at least one wrapped function.  The count values
themselves are not gated, so a change that lowers them still passes.
Exits 0 on success, 1 on a failed condition.
"""

import sys

import tracer
from run import SRC, Runner, Workload

TINY = Workload("verify-mc", "suites.mc_suite", ("--paths", "60000"), (("grid", "steps", 8),))
MIN_COVERAGE = 0.95


def counts(trace: dict) -> dict:
    out = {"members": trace["members"], "member_cells": trace["member_cells"]}
    for name, slot in trace["functions"].items():
        for key, val in slot.items():
            if not key.endswith("_s") and key != "rss_rise_mb":
                out[f"{name}.{key}"] = val
    return out


def main() -> int:
    if not (SRC / "defaultlab" / "cli.py").is_file():
        print(f"no defaultlab sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner("selftest", seed=0, wl=TINY)
    runner.warm_up()
    plain = runner.battery()
    traced = [runner.battery(traced=True), runner.battery(traced=True)]
    failures = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    for label, rec in [("untraced", plain), ("traced 1", traced[0]), ("traced 2", traced[1])]:
        expect(rec["ok"], f"{label} battery exits 0 with every check passing")
    if not all(rec.get("trace") for rec in traced):
        expect(False, "traced batteries report a trace")
        return 1
    c1, c2 = counts(traced[0]["trace"]), counts(traced[1]["trace"])
    diff = sorted(k for k in set(c1) | set(c2) if c1.get(k) != c2.get(k))
    expect(not diff, f"two traced runs give identical counts ({len(c1)} compared; differing: {diff})")
    for i, rec in enumerate(traced, 1):
        expect(rec["digests"] == plain["digests"] and plain["digests"],
               f"traced run {i} writes the untraced run's bytes ({len(plain['digests'])} files)")
        cov = (rec["import_s"] + rec["trace"]["root_s"]) / rec["wall_s"]
        expect(cov >= MIN_COVERAGE, f"traced run {i} coverage {cov:.4f} >= {MIN_COVERAGE}")
    wrapped = traced[0]["trace"]["wrapped"]
    bare = [layer for layer in tracer.LAYERS if not any(n.startswith(layer + ".") for n in wrapped)]
    expect(not bare, f"every layer has wrapped functions ({len(wrapped)} wrapped; none in: {bare})")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
