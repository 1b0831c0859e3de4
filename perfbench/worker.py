"""One benchmark process: set up, then send a workload's checks through
``pst.cli.main`` in process, one after another (a closed loop, one client).

Set-up imports pst from the checkout's ``src``, generates the seeded check
list and writes the model files into a temporary directory under
``.perfbench/``; then the worker prints ``READY``.  With ``--setup-only`` it
stops there.  Otherwise it runs the checks and prints one JSON line.

Each check starts cold, as a separate ``pst`` invocation does: cli.main
loads its own model file and builds its own NameStore and EvalContext.
The garbage of the previous check is collected before the clock starts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

MIN_CHECKS = 100  # p90 then has at least ten samples beyond it
MAX_ROUNDS = 24
STOP_AFTER_S = 140.0  # start no new check after this, whatever --seconds says
WARM_UP_S = 3.0  # untimed checks first, so that timing starts with the CPU already busy

FAILURES = ("reach_cap", "exit2", "raised", "over_budget", "wrong_verdict")
UNEXPECTED = ("exit2", "raised", "wrong_verdict")


def git_rev() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def import_pst():
    src = ROOT / "src"
    if not (src / "pst" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no pst sources under {src}")
    sys.path.insert(0, str(src))
    import pst
    import pst.cli

    if Path(pst.__file__).resolve().parent != (src / "pst").resolve():
        raise SystemExit(f"benchmark: imported pst from {pst.__file__}, not from the checkout")
    return pst.cli


def write_models(models_dir: str) -> None:
    """Every model file the checks name, from pst's own text formatters."""
    from pst.algebra import format_algebra_text, heyting_from_leq
    from pst.fidel import format_fstructure_text, saturate

    orders = {  # i <= j as order matrices: chains by value, b4 by subset bitmask
        "chain2": lambda i, j: i <= j,
        "chain3": lambda i, j: i <= j,
        "chain4": lambda i, j: i <= j,
        "b4": lambda i, j: i & j == i,
    }
    for name, stem, kind in checks.model_files():
        size = checks.MODELS[stem][0]
        h = heyting_from_leq([[orders[stem](i, j) for j in range(size)] for i in range(size)])
        if kind is None:
            text = format_algebra_text(stem, h)
        else:
            text = format_fstructure_text(f"{stem}_{kind}", saturate(h, kind))
        with open(os.path.join(models_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_check(cli_main, check, tracer=None) -> dict:
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    raised = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        root = tracer.begin_check(check.id) if tracer else None
        t0 = time.perf_counter()
        try:
            rc = cli_main(list(check.argv))
        except Exception as exc:  # a traceback from pst is a defect: record it, go on
            raised = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_check(root, check.argv)
    return {"check": check, "rc": rc, "elapsed": elapsed, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "raised": raised}


def classify(rec: dict, budgets: bool) -> str:
    check = rec["check"]
    if rec["raised"] is not None:
        return "raised"
    if rec["rc"] == 2:
        cap = checks.CAP_MESSAGE in rec["stderr"]
        return "reach_cap" if check.reach and cap else "exit2"
    if not checks.verdict_matches(check, rec["rc"], rec["stdout"]):
        return "wrong_verdict"
    if budgets and rec["elapsed"] > check.budget_s:
        return "over_budget"
    return "ok"


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(records: list[dict], max_budget: float) -> tuple[dict, dict]:
    """Metrics of an untraced run.  A failed check ranks above every completed
    one; a percentile that lands on a failure reads as the largest budget."""
    n = len(records)
    completed = [r for r in records if r["outcome"] == "ok"]
    busy = sum(r["elapsed"] for r in records)
    ranked = sorted(r["elapsed"] if r["outcome"] == "ok" else math.inf for r in records)
    p50, p90 = (nearest_rank(ranked, q) for q in (0.5, 0.9))
    metrics = {
        "checks_per_s": {"value": len(completed) / busy, "unit": "1/s"},
        "verdict_p50_s": {"value": p50 if p50 != math.inf else max_budget, "unit": "s"},
        "verdict_p90_s": {"value": p90 if p90 != math.inf else max_budget, "unit": "s"},
        "completed_share": {"value": len(completed) / n, "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    samples = {"verdict_p50_s": n, "verdict_p90_s": n, "beyond_p90": n - math.ceil(0.9 * n)}
    return metrics, samples


def run_rounds(cli_main, rounds, seconds: float, max_checks: int | None, tracer=None) -> tuple[list, float]:
    """Whole rounds: as many as fit --seconds by the first round's pace, and at
    least enough for MIN_CHECKS checks (or exactly ``max_checks`` checks)."""
    records: list[dict] = []
    t_start = time.perf_counter()
    target = len(rounds)
    for r, round_checks in enumerate(rounds):
        if r >= target:
            break
        for check in round_checks:
            if max_checks is not None and len(records) >= max_checks:
                return records, time.perf_counter() - t_start
            if time.perf_counter() - t_start > STOP_AFTER_S:
                return records, time.perf_counter() - t_start
            rec = run_check(cli_main, check, tracer)
            rec["outcome"] = classify(rec, budgets=tracer is None)
            records.append(rec)
        if r == 0 and max_checks is None:
            pace = time.perf_counter() - t_start
            min_rounds = math.ceil(MIN_CHECKS / len(round_checks))
            target = min(len(rounds), max(min_rounds, round(seconds / pace)))
    return records, time.perf_counter() - t_start


def warm_up(cli_main, round_checks) -> None:
    """Run checks untimed for WARM_UP_S.  A shared CPU runs faster for a few
    seconds after it was idle; this keeps that burst out of the figures."""
    t_start = time.perf_counter()
    for check in round_checks:
        if time.perf_counter() - t_start > WARM_UP_S:
            return
        run_check(cli_main, check)


def report_failures(records: list[dict]) -> None:
    for rec in records:
        if rec["outcome"] in UNEXPECTED:
            check = rec["check"]
            want = " ".join(f"{k}={v}" for k, v in check.expect)
            got = rec["raised"] or (rec["stdout"].strip().splitlines() or [""])[-1] or rec["stderr"].strip()
            print(
                f"benchmark: {rec['outcome']}: {check.id} (template {check.template}): "
                f"expected rc={check.rc} {want}; got rc={rec['rc']} {got}",
                file=sys.stderr,
            )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-checks", type=int, default=None, help="stop after this many checks (self-test)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.workload not in checks.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}")
    cli_main = import_pst().main
    OUT_DIR.mkdir(exist_ok=True)
    models_dir = tempfile.mkdtemp(prefix="models-", dir=OUT_DIR)
    try:
        jobs = min(2, nproc())
        rounds = checks.make_rounds(args.workload, args.seed, MAX_ROUNDS, models_dir, jobs)
        write_models(models_dir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return measure(args, cli_main, rounds)
    finally:
        shutil.rmtree(models_dir, ignore_errors=True)


def measure(args, cli_main, rounds) -> int:
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "checks_per_round": len(rounds[0]),
        "loop": "closed, one client",
    }
    if args.trace:
        from tracing import Tracer

        plain, plain_wall = run_rounds(cli_main, rounds[:1], args.seconds, args.max_checks)
        tracer = Tracer()
        tracer.install()
        traced, traced_wall = run_rounds(cli_main, rounds[:1], args.seconds, args.max_checks, tracer)
        records = plain + traced
        metrics = tracer.metrics(traced_wall - plain_wall)
        tracer.write(OUT_DIR / f"spans-{args.workload}")
        info.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall, spans=len(tracer.start))
    else:
        if args.max_checks is None:
            warm_up(cli_main, rounds[-1])
        records, wall = run_rounds(cli_main, rounds, args.seconds, args.max_checks)
        max_budget = max(r["check"].budget_s for r in records)
        metrics, samples = end_to_end(records, max_budget)
        info.update(wall_s=wall, samples=samples)
    breakdown = {k: sum(r["outcome"] == k for r in records) for k in FAILURES}
    info.update(attempted=len(records), failures=breakdown)
    report_failures(records)
    correct = not any(breakdown[k] for k in UNEXPECTED)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(breakdown.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
