"""Workload-design self-check: does each workload stress the layers it claims?

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Runs every workload traced (``run.py --trace 1``) and checks, on the traced
per-layer numbers:

- resample_knn: samplers + neighbours take most of ``evaluate.busy_s`` and
  estimators + trees little of it;
- fit_default: estimators + trees outweigh samplers + neighbours;
- multiclass_2w: ``search.concurrency`` is clearly above 1.

Layer times are self times, so the shares do not double count. These claims
describe the workloads, not the program's speed: if a change to the program
breaks one, the workload's space or shape needs revisiting, not the check.
Exits with status 1 if any claim fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

MOST = 0.5
LITTLE = 0.15
CLEARLY_CONCURRENT = 1.3


def traced_layers(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"traced run of {workload} failed")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced run of {workload} failed its output checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def resampling_s(m: dict) -> float:
    return m["samplers.s"] + m["neighbors.s"]


def fitting_s(m: dict) -> float:
    return m["estimators.fit_s"] + m["tree.s"]


def claims(m: dict) -> dict[str, list[tuple[str, float, str, float]]]:
    """Per workload: (what, measured, comparison, threshold)."""
    rk, fd, mc = m["resample_knn"], m["fit_default"], m["multiclass_2w"]
    return {
        "resample_knn": [
            ("(samplers.s + neighbors.s) / evaluate.busy_s",
             resampling_s(rk) / rk["evaluate.busy_s"], ">=", MOST),
            ("(estimators.fit_s + tree.s) / evaluate.busy_s",
             fitting_s(rk) / rk["evaluate.busy_s"], "<=", LITTLE),
        ],
        "fit_default": [
            ("(estimators.fit_s + tree.s) / (samplers.s + neighbors.s)",
             fitting_s(fd) / resampling_s(fd), ">", 1.0),
        ],
        "multiclass_2w": [
            ("search.concurrency", mc["search.concurrency"], ">=", CLEARLY_CONCURRENT),
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    workloads = ("resample_knn", "fit_default", "multiclass_2w")
    measured = {w: traced_layers(w, args.seed, args.seconds) for w in workloads}
    failures = 0
    for workload, checks in claims(measured).items():
        for what, value, op, threshold in checks:
            ok = {">=": value >= threshold, "<=": value <= threshold, ">": value > threshold}[op]
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:<14} {what} = {value:.3f} "
                  f"(want {op} {threshold})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
