#!/usr/bin/env python3
"""Run every YAML scenario in configs/ and, for each, one sweep (epsilon over
0.1,0.2) and ``certify <model> --epsilon <config epsilon> --out``, once in
each output format (csv under <out>/csv, json under <out>/json).

Prints a one-line summary per run, the CLI's own output for the sweep and the
certificate, and the sha256 of every file written (relative to --out), so two
runs can be compared for byte identity of ``run``, ``sweep`` and ``certify``
in both formats with one diff of their output."""
import argparse
import hashlib
import sys
from pathlib import Path

from poismech.cli import load_config, main as cli_main, run_scenario

SWEEP_VALUES = "0.1,0.2"
FORMATS = ("csv", "json")


def print_digests(root: Path, sub: str) -> None:
    for path in sorted((root / sub).rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"  {digest}  {path.relative_to(root).as_posix()}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", default=None,
                        help="directory of scenario YAMLs (default: configs/ next to this script)")
    parser.add_argument("--out", default="out/scenarios", help="output root")
    args = parser.parse_args()

    cfg_dir = Path(args.configs) if args.configs else Path(__file__).resolve().parents[1] / "configs"
    paths = sorted(cfg_dir.glob("*.yaml"))
    if not paths:
        print(f"no scenario files in {cfg_dir}", file=sys.stderr)
        return 2

    root = Path(args.out)
    any_failed = False
    for fmt in FORMATS:
        for path in paths:
            config = load_config(path)
            run = f"{fmt}/{path.stem}"
            manifest, ok = run_scenario(config, root / run, fmt)
            n_files = len(manifest["files"])
            status = "ok" if ok else "CERTIFICATE FAILED"
            print(f"{run:<19} {config.model:<12} {n_files:>3} files  {status}")
            print_digests(root, run)

            sweep = f"{run}_sweep"
            rc_sweep = cli_main(["sweep", str(path), "--param", "epsilon", "--values", SWEEP_VALUES,
                                 "--out", str(root / sweep), "--format", fmt])
            print_digests(root, sweep)

            cert = f"{run}_certify"
            epsilon = f"--epsilon={config.params['epsilon']!r}"  # "=" keeps a negative value
            rc_cert = cli_main(["certify", config.model, epsilon,
                                "--out", str(root / cert), "--format", fmt])
            print_digests(root, cert)
            any_failed = any_failed or not ok or rc_sweep != 0 or rc_cert != 0
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
