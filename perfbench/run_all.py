"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/run_all.py --seed 1 --seconds 20

Each workload runs twice through run.py: --trace 0 for the end-to-end
metrics, then --trace 1 for the per-layer ones. Lines are printed as
"<workload> <metric> <value> <unit>", followed by the overall
failed_ratio. Exits 1 if any job gave a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    attempted = failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                return 2
            for line in lines[:-1]:
                if not line.startswith("sha256 "):
                    print(f"{name} {line}")
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
    print(f"all failed_ratio {failed / attempted} ratio ({failed} of {attempted} jobs)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
