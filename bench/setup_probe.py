"""Cold start of one workload, run in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed>

Imports ``partial_eraser`` (and with it numpy), does the workload's
set-up up to the point where its first trial or evaluation could run,
prints ``ready`` and exits.  The benchmark times a process from its start
to that line and reports the median as ``setup_s``.
"""

from __future__ import annotations

import sys

import program


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    program.use_checkout_sources()
    if workload in ("mc_pair", "mc_logged"):
        # The import that ``partial-eraser run`` pays, then parse, resolve
        # and compile each config; compiling happens on the first trial.
        from partial_eraser import cli  # noqa: F401
        from partial_eraser.config import parse_experiment_file, resolve_config
        from partial_eraser.montecarlo import iter_trials

        names = (
            program.PAIR_CONFIGS if workload == "mc_pair" else (program.LOGGED_CONFIG,)
        )
        for name in names:
            parsed = parse_experiment_file(program.config_path(name))
            next(iter_trials(resolve_config(parsed, seed=seed)))
    elif workload == "cascade_loop":
        from partial_eraser.cascade import DetectorPlacement, build_cascade
        from partial_eraser.montecarlo import trial_stream
        from partial_eraser.polarization import Axis, Branch, basis_state

        build_cascade(100)
        DetectorPlacement(Branch.PLUS, frozenset({3}))
        DetectorPlacement(Branch.PLUS, frozenset(range(50)))
        DetectorPlacement(Branch.MINUS, frozenset(range(50)))
        basis_state(Axis.Y, Branch.PLUS)
        trial_stream(seed, 0)
    elif workload == "oracle_sweep":
        from partial_eraser import cli  # noqa: F401  (chart_table)
        from partial_eraser.epr import make_epr
        from partial_eraser.montecarlo import trial_stream

        make_epr()
        trial_stream(seed, 0)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
