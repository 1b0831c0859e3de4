"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. The known-answer table covers every template any seed can draw, and
   every drawn check fills all of its placeholders.
2. Generation is seeded: one seed gives one list, another seed another.
3. A smoke run with one check per workload, untraced and traced, prints
   every metric named in BENCHMARK.json with its unit, and nothing else.
4. Without the pst sources the benchmark exits nonzero and prints no result.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

SEEDS = range(1, 41)


def check_known_answers() -> None:
    used = set()
    for workload, slots in checks.WORKLOADS.items():
        for _, key, variants in slots:
            assert key in checks.TEMPLATES, f"{workload}: template {key!r} has no known answer"
            assert variants, f"{workload}: slot {key!r} has no variants"
            used.add(key)
        for seed in SEEDS:
            for round_checks in checks.make_rounds(workload, seed, 2, "models", 2):
                for c in round_checks:
                    assert c.template in checks.TEMPLATES, c.id
                    assert c.rc in (0, 1) and c.expect, c.id
                    text = " ".join(c.argv) + " ".join(f"{k}={v}" for k, v in c.expect)
                    assert "{" not in text and "}" not in text, f"unfilled: {c.id}: {text}"
    unused = set(checks.TEMPLATES) - used
    assert not unused, f"known answers for templates no workload draws: {sorted(unused)}"
    for key, tpl in checks.TEMPLATES.items():
        assert tpl.reason.strip(), f"{key}: no reason for the known answer"


def check_seeding() -> None:
    for workload in checks.WORKLOADS:
        a = checks.make_rounds(workload, 1, 2, "models", 2)
        assert a == checks.make_rounds(workload, 1, 2, "models", 2), f"{workload}: seed 1 is not repeatable"
        b = checks.make_rounds(workload, 2, 2, "models", 2)
        assert [c.argv for c in a[0]] != [c.argv for c in b[0]], f"{workload}: seeds 1 and 2 draw the same list"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--max-checks", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(checks.WORKLOADS)
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, w["name"], trace)
            assert proc.returncode == 0, f"{w['name']} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{w['name']} trace={trace}: metrics {got} != {want}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{name}: {m['value']!r}"
            print(f"ok: {w['name']} trace={trace}: {len(got)} metrics")


def check_without_sources() -> None:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out_dir))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "rank3-dense", 0)
        assert proc.returncode != 0, "ran without pst sources"
        assert '"metrics"' not in proc.stdout, "printed a result without pst sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for step in (check_known_answers, check_seeding, check_smoke, check_without_sources):
        step()
        print(f"ok: {step.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
