#!/usr/bin/env python3
"""Emit the four analytic chart CSVs into an output directory."""

import argparse
import pathlib
import sys

from partial_eraser.cli import CHART_IDS, main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="charts", type=pathlib.Path)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for chart_id in CHART_IDS:  # each on its default grid
        out = args.out_dir / f"{chart_id}.csv"
        code = cli_main(["chart", chart_id, "--output", str(out)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
