"""Pinned output bytes against numpy's CPU dispatch.

numpy picks some kernels by CPU at import.  Each child process here turns
off one more of this host's dispatch levels through
``NPY_DISABLE_CPU_FEATURES`` and reruns the byte pins; a pin may fail
there only if it is listed in ``HOST_BOUND_PINS`` with its reason.
"""

import xml.etree.ElementTree as ET

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from conftest import REPO, run_python
from test_cli import CLI_DIGESTS

PINS = "test_cli_bytes_pinned or test_shipped_golden_configs"

# Each level adds to the features turned off by the one before it.
LEVELS = [("AVX512_SPR", "AVX512_ICL", "X86_V4"), ("X86_V3",)]

GEOMSPACE = (
    "its log grid is np.geomspace, whose power kernel rounds 9 of the 200"
    " points 1 ulp differently with AVX512 on"
)
HOST_BOUND_PINS = {
    "test_cli_bytes_pinned[chart inequality_deltas_vs_rho]": GEOMSPACE,
    "test_cli_bytes_pinned[chart inequality_deltas_vs_rho --min 1 --max 20 --steps 200 --scale log]": GEOMSPACE,
    "test_cli_bytes_pinned[inequality-scan]": GEOMSPACE,
}


def failed_pins(tmp_path, disabled):
    """Run the byte pins with ``disabled`` features off; return the names
    of the tests that ran and of those that failed."""
    report = tmp_path / "pins.xml"
    result = run_python(
        [
            "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_cli.py",
            "-k", PINS, f"--junitxml={report}",
        ],
        cwd=REPO,
        env={"NPY_DISABLE_CPU_FEATURES": " ".join(disabled)},
    )
    assert result.returncode in (0, 1), result.stdout + result.stderr
    cases = ET.parse(report).getroot().iter("testcase")
    ran, failed = [], []
    for case in cases:
        ran.append(case.get("name"))
        if case.find("failure") is not None or case.find("error") is not None:
            failed.append(case.get("name"))
    return ran, failed


def test_pins_hold_across_dispatch_levels(tmp_path):
    disabled = []
    for level in LEVELS:
        present = [f for f in level if f in __cpu_dispatch__ and __cpu_features__.get(f)]
        if not present:  # this host or build lacks the level
            continue
        disabled += present
        ran, failed = failed_pins(tmp_path, disabled)
        assert len(ran) == len(CLI_DIGESTS) + 1, ran
        assert set(failed) <= set(HOST_BOUND_PINS), (disabled, failed)
