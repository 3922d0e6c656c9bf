"""Print every benchmark metric of every workload, by name, with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--workload certify ...]

For each workload this runs ``run.py`` once untraced (the end-to-end
metrics) and twice traced on the same seed (the per-layer metrics).  It
prints the gates, the tracing overhead, and whether every exact count
repeated between the two traced runs; it exits 1 if a gate failed, a count
differed, or a metric named in ``BENCHMARK.json`` is missing.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import is_exact  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py {workload} trace={trace} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    spec_path = HERE.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None

    ok = True
    for workload in args.workload or workloads.WORKLOADS:
        plain, notes = _run(workload, args.seed, args.seconds, 0)
        traced, traced_notes = _run(workload, args.seed, args.seconds, 1)
        again, _ = _run(workload, args.seed, args.seconds, 1)
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s per run)")
        for line in notes + traced_notes:
            if not line.startswith("metric "):
                print(f"   {line}")
        for result, label in ((plain, "untraced"), (traced, "traced"), (again, "traced again")):
            print(f"   gates {label}: {result['attempted']} jobs attempted, {result['failed']} failed")
            ok &= result["correct"]
        print("   end to end:")
        for name, m in plain["metrics"].items():
            print(f"     {name:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"     {'failed_ratio':<44} {plain['failed'] / plain['attempted']:>14.6g} 1")
        print("   per layer:")
        for name, m in traced["metrics"].items():
            print(f"     {name:<44} {m['value']:>14.6g} {m['unit']}")
        t = traced["metrics"]
        print(f"   tracing overhead: {t['trace.overhead_s']['value']:.4f} s per pass "
              f"({t['trace.traced_wall_s']['value']:.4f} s traced - "
              f"{t['trace.untraced_wall_s']['value']:.4f} s untraced)")
        moved = [n for n, m in t.items() if is_exact(n) and m["value"] != again["metrics"][n]["value"]]
        print(f"   exact counts repeat across traced runs: {'yes' if not moved else 'NO: ' + ', '.join(moved)}")
        ok &= not moved
        if spec is not None:
            missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in plain["metrics"]]
            missing += [m["name"] for m in spec["per_layer"] if m["name"] not in t]
            if missing:
                print(f"   missing metrics named in BENCHMARK.json: {', '.join(missing)}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
