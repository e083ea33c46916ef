"""Benchmark of the partial_eraser simulator.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see ``workloads.py``; the loop, the metrics and the
report are in ``harness.py``) in this process, one job after another, for
``--seconds`` seconds: a closed loop with one client and no worker
threads.  Then it runs job 0 again and requires the same output
bytes.

``--trace 0`` reports the end-to-end metrics: the median cold start of a
fresh interpreter (``setup_s``), the median over jobs of sampled trials
per second and of oracle evaluations per second, and the peak resident
memory of this process.

``--trace 1`` alternates traced and untraced jobs, then runs the layer
probe, and reports per-layer metrics from the spans recorded around every
call this benchmark makes into the simulator, plus the tracing overhead.
The spans are written to ``.bench_out/``.

Each job checks its outputs.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (jobs) and ``metrics``.
The first line starts with ``stamp`` and records the host, versions,
commit and source size the numbers belong to.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import program

# One thread for numerical libraries, set before numpy loads; child
# processes inherit it.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=program.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = program.missing_inputs()
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    program.use_checkout_sources()

    import partial_eraser

    import harness

    if Path(partial_eraser.__file__).resolve().parent != program.PACKAGE.resolve():
        print(f"error: imported {partial_eraser.__file__}, not the checkout's", file=sys.stderr)
        return 2
    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
