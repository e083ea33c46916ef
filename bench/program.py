"""Where the simulator's sources live in the checkout, and what the
benchmark needs from it.

The benchmark always measures the ``partial_eraser`` package under
``src/`` of the checkout it sits in, never an installed copy, so that a
checkout without the sources fails instead of measuring something else.
This module imports nothing heavy: the set-up probe loads it inside the
interval it times.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "partial_eraser"
CONFIGS = ROOT / "configs"

WORKLOADS = ("mc_pair", "mc_logged", "cascade_loop", "oracle_sweep")

# The shipped pair configs driven through ``run`` by mc_pair, and the
# single-photon cascade config driven through ``run --log-trials`` by
# mc_logged.
PAIR_CONFIGS = ("empty_plan", "epr_k05", "erasure")
LOGGED_CONFIG = "single_half"


def config_path(name: str) -> Path:
    return CONFIGS / f"{name}.cfg"


def missing_inputs() -> list[str]:
    """Files the benchmark cannot run without, absent from this checkout."""
    needed = [PACKAGE / "__init__.py"]
    needed += [config_path(name) for name in PAIR_CONFIGS + (LOGGED_CONFIG,)]
    return [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on the import path."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
