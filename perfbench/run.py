"""pst benchmark entry point.

    python3 perfbench/run.py --workload rank3-dense --seed 1 --seconds 22 --trace 0

Runs the set-up several times in fresh worker processes (interpreter start,
importing pst, generating the seeded check list, writing model files) and
reports the median as ``setup_s``; the last worker then runs the workload.
With ``--trace 0`` the last line is the JSON of the end-to-end metrics, with
``--trace 1`` that of the per-module metrics of a traced run.  The exit code
is 0 only when every verdict matches its known answer.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # set-ups per run; the last one goes on to measure
TIME_LIMIT_S = 170.0  # the whole run, set-ups included


def _wait_ready(proc: subprocess.Popen, deadline: float) -> bool:
    remaining = deadline - time.monotonic()
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, remaining))
    return bool(ready) and proc.stdout.readline().strip() == "READY"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-checks", type=int, default=None, help="stop after this many checks (self-test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pst" / "__init__.py").is_file():
        print(f"benchmark: no pst sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + TIME_LIMIT_S
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.max_checks is not None:
        base += ["--max-checks", str(args.max_checks)]
    setups = []
    for i in range(SETUPS):
        measuring = i == SETUPS - 1
        t0 = time.perf_counter()
        proc = subprocess.Popen(base + ([] if measuring else ["--setup-only"]), cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            if not _wait_ready(proc, deadline):
                print("benchmark: worker did not finish its set-up", file=sys.stderr)
                return 1
            setups.append(time.perf_counter() - t0)
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"benchmark: worker passed the {TIME_LIMIT_S:.0f} s limit", file=sys.stderr)
            return 1
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 and not measuring:
            return proc.returncode

    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        print("benchmark: worker printed no result", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"benchmark: worker's last line is not JSON: {lines[-1]!r}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"info setup_samples_s {json.dumps(setups)}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
