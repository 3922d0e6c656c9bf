#!/usr/bin/env python3
"""Run every YAML scenario in configs/ and print a one-line summary per run,
followed by the sha256 of every file the run wrote (relative to --out), so
two runs can be compared for byte identity with one diff of their output."""
import argparse
import hashlib
import sys
from pathlib import Path

from poismech.cli import load_config, run_scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", default=None,
                        help="directory of scenario YAMLs (default: configs/ next to this script)")
    parser.add_argument("--out", default="out/scenarios", help="output root")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args()

    cfg_dir = Path(args.configs) if args.configs else Path(__file__).resolve().parents[1] / "configs"
    paths = sorted(cfg_dir.glob("*.yaml"))
    if not paths:
        print(f"no scenario files in {cfg_dir}", file=sys.stderr)
        return 2

    any_failed = False
    for path in paths:
        config = load_config(path)
        out_dir = Path(args.out) / path.stem
        manifest, ok = run_scenario(config, out_dir, args.format)
        n_files = len(manifest["files"])
        status = "ok" if ok else "CERTIFICATE FAILED"
        print(f"{path.stem:<14} {config.model:<12} {n_files:>3} files  {status}")
        for name in manifest["files"]:
            digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            print(f"  {digest}  {path.stem}/{name}")
        any_failed = any_failed or not ok
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
