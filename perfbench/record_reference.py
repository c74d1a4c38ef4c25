"""Record reference output digests for the benchmark's workloads.

    python3 perfbench/record_reference.py --workload all --seeds 0-9

Runs one untraced battery per workload and seed and stores, in
perfbench/reference.json, the sha256 of every output file and the number of
checks in the summary.  run.py compares each battery's outputs against these
(outputs.digest_match); the digests depend on the numpy and BLAS build, so
record them again, on the parent commit, when either changes.  A battery
whose checks fail is still recorded, and reported here.
"""

import argparse
import json
import sys

from run import REFERENCE, WORKLOADS, Runner, load_reference


def seed_list(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seeds", required=True, help="e.g. 0-9 or 0,3,5")
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ref = load_reference()
    code = 0
    for name in names:
        for seed in seed_list(args.seeds):
            runner = Runner(name, seed)
            runner.warm_up()
            rec = runner.battery()
            if not rec["digests"]:
                print(f"{name} seed {seed}: no outputs, nothing recorded", file=sys.stderr)
                code = 1
                continue
            slot = ref.setdefault(name, {"checks": rec["checks"], "seeds": {}})
            slot["checks"] = rec["checks"]
            slot["seeds"][str(seed)] = rec["digests"]
            print(f"{name} seed {seed}: {len(rec['digests'])} files, "
                  f"{rec['failed']}/{rec['checks']} checks failed", flush=True)
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
