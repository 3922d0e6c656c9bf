#!/usr/bin/env python3
"""Paired before/after benchmark runs, written as one BENCH_<tag>.json.

    python scripts/bench_pairs.py --base HEAD~1 --seed 71 --out BENCH_x.json

For each workload that ``BENCHMARK.json`` lists, the script runs
``perfbench/run.py`` for that file's ``run_seconds`` in ``PAIRS`` pairs, once
on a copy of the base revision and once on the working tree, and swaps which
side runs first from one pair to the next, so a drift of the machine falls
on both sides alike.  Both sides run from temporary directories: the base
revision is exported with ``git archive``, which leaves no worktree
registered in the repository, and the working tree's tracked and untracked,
unignored files are copied, so neither side reads caches or outputs that
earlier runs left in the repository.  Each run gets a fresh copy of its
side, made from that side's one snapshot, with its bytecode compiled before
the timed run.  ``peak_rss_mb``
carries an offset of a few tenths of a MB that belongs to the copy, not to
the revision; with one copy per side, that offset would count in all ten
runs of the side and read as a 0/10 or 10/10 gap, while a copy per run
spreads it over the runs like any other noise.

The file records both revisions, the machine, the Python and numpy versions,
every run's last JSON line, and per side and workload the median and
quartiles of each end-to-end metric that ``BENCHMARK.json`` names.  For each
metric it also counts the pairs the working tree wins and compares the gap
of the medians with the base's interquartile range.  Nothing under
``perfbench/`` is changed.
"""
import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10  # alternating pairs per workload


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``, as ``git archive`` writes them."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as members:
        members.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    """The working tree's tracked and untracked, unignored files under
    ``dest``; a tracked file deleted from the working tree is left out."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(source: Path, root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from ``root``, a fresh copy of ``source`` whose
    bytecode is compiled first and which is removed after; the run's last
    line of output, parsed."""
    shutil.copytree(source, root)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "."], cwd=root, check=True,
                       capture_output=True)
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    finally:
        shutil.rmtree(root)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(base: list[dict], head: list[dict], metric: str, better: str) -> dict:
    """Per metric: the quartiles of each side, the pairs the working tree
    wins, and whether its median beats the base's by more than the base's
    interquartile range."""
    b = [r["metrics"][metric]["value"] for r in base]
    h = [r["metrics"][metric]["value"] for r in head]
    sign = 1.0 if better == "lower" else -1.0
    qb, qh = quartiles(b), quartiles(h)
    gain = sign * (qb["median"] - qh["median"])
    return {
        "base": qb,
        "head": qh,
        "head_wins": sum(sign * (x - y) > 0 for x, y in zip(b, h)),
        "pairs": len(b),
        "median_change": qh["median"] / qb["median"] - 1.0 if qb["median"] else None,
        "beats_base_iqr": gain > qb["q3"] - qb["q1"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD", help="revision to compare the working tree with")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="the BENCH_<tag>.json to write")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    record = {
        "base": {"rev": args.base, "sha": git("rev-parse", args.base)},
        "head": {"sha": git("rev-parse", "HEAD"), "working_tree_changes": dirty},
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "processor": platform.processor(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        export(args.base, sides["base"])
        copy_worktree(sides["head"])
        for workload in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list] = {"base": [], "head": []}
            for i in range(PAIRS):
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    root = Path(tmp) / f"run-{side}"
                    runs[side].append(run_once(sides[side], root, workload, args.seed, seconds))
                print(f"{workload} pair {i + 1}/{PAIRS}: wall_s base "
                      f"{runs['base'][-1]['metrics']['wall_s']['value']:.4f} head "
                      f"{runs['head'][-1]['metrics']['wall_s']['value']:.4f}", flush=True)
            record["workloads"][workload] = {
                "first": ["base" if i % 2 == 0 else "head" for i in range(PAIRS)],
                "runs": runs,
                "metrics": {m: compare(runs["base"], runs["head"], m, better)
                            for m, better in metrics.items()},
            }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
