#!/usr/bin/env python3
"""Run every shipped experiment config with a 4-sigma regression gate,
printing each run's wall time after its gate line."""

import argparse
import pathlib
import sys
import time

from partial_eraser.cli import main as cli_main

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", type=pathlib.Path)
    parser.add_argument("--gate", default=4.0, type=float)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for config in sorted(CONFIG_DIR.glob("*.cfg")):
        out = args.out_dir / f"{config.stem}.csv"
        print(f"== {config.stem}")
        start = time.perf_counter()
        code = cli_main(
            ["run", str(config), "--output", str(out), "--gate", str(args.gate)]
        )
        print(f"   exit {code} in {time.perf_counter() - start:.3f} s")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
