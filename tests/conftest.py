import itertools
import math
import os
import pathlib
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume

from partial_eraser import (
    Axis,
    Branch,
    IntensityQuadruple,
    PairState,
    PolarizationState,
    ZeroSurvival,
)

finite = dict(allow_nan=False, allow_infinity=False)

alphas = st.floats(min_value=0.0, max_value=1.0, **finite)
alphas_positive = st.floats(min_value=1e-6, max_value=1.0, **finite)
axes = st.sampled_from(list(Axis))
branches = st.sampled_from(list(Branch))


def amplitude_distance(a: PolarizationState, b: PolarizationState) -> float:
    """Euclidean distance between the amplitude vectors of two states."""
    return math.sqrt(
        abs(a.amp_up - b.amp_up) ** 2 + abs(a.amp_right - b.amp_right) ** 2
    )


def unit_states(gen, count):
    """``count`` random unit single-photon states, drawn with
    ``gen.random()`` (stable across numpy versions, unlike ``normal``)."""
    for _ in range(count):
        parts = [2.0 * gen.random() - 1.0 for _ in range(4)]
        norm = math.sqrt(sum(p * p for p in parts))
        yield PolarizationState(
            complex(parts[0] / norm, parts[1] / norm), complex(parts[2] / norm, parts[3] / norm)
        )


def signed_part_states():
    """States whose four real parts take every sign class of +0, -0, +x
    and -x with at least one nonzero part, with equal and with unequal
    magnitudes."""
    for signs in itertools.product((0.0, -0.0, 1.0, -1.0), repeat=4):
        if not any(signs):
            continue
        for magnitudes in ((1.0, 1.0, 1.0, 1.0), (0.1, 0.7, 0.3, 0.9)):
            parts = [s * m for s, m in zip(signs, magnitudes)]
            norm = math.sqrt(sum(p * p for p in parts))
            parts = [p / norm for p in parts]
            yield PolarizationState(complex(parts[0], parts[1]), complex(parts[2], parts[3]))


def tiny_part_states():
    """States with one component zero or of magnitude 1e-8 down to the
    smallest subnormal, as a real, a negative or an imaginary part, on
    either side and beside a real or an imaginary unit."""
    for tiny in (0.0, 1e-8, 1e-16, 1e-100, 1e-160, 1e-200, 1e-300, 1e-308, 1e-320, 5e-324):
        for small in (tiny, -tiny, complex(0.0, tiny)):
            for unit in (1.0, 1j):
                yield PolarizationState(unit, small)
                yield PolarizationState(small, unit)


def unit_pairs(gen, count):
    """``count`` random unit pair states, drawn as ``unit_states`` are."""
    for _ in range(count):
        parts = [2.0 * gen.random() - 1.0 for _ in range(8)]
        norm = math.sqrt(sum(p * p for p in parts))
        yield PairState(*(complex(parts[2 * i] / norm, parts[2 * i + 1] / norm) for i in range(4)))


def amplitudes(state) -> tuple:
    """The complex amplitudes of a single-photon or pair state: what the
    ``*_amplitudes_pinned`` tests hash of a state."""
    if isinstance(state, PairState):
        return state.amp_uu, state.amp_rr, state.amp_ur, state.amp_ru
    return state.amp_up, state.amp_right


def amplitude_text(fn, *args) -> str:
    """The amplitudes of the state ``fn(*args)`` as text, or
    ``"ZeroSurvival"`` where it raises that."""
    try:
        return repr(amplitudes(fn(*args)))
    except ZeroSurvival:
        return "ZeroSurvival"


def outcome_text(outcome) -> str:
    """A sampled outcome's ``clicked``, probability, post-state amplitudes
    and detector, as text."""
    return (
        f"{outcome.clicked} {outcome.probability!r} {amplitudes(outcome.post_state)!r}"
        f" {outcome.detector}"
    )


@st.composite
def polarization_states(draw, complex_amps: bool = True):
    """Random normalized single-photon state, bounded away from basis poles."""
    parts = [draw(st.floats(min_value=-1.0, max_value=1.0, **finite)) for _ in range(4)]
    up = complex(parts[0], parts[1] if complex_amps else 0.0)
    right = complex(parts[2], parts[3] if complex_amps else 0.0)
    norm = math.sqrt(abs(up) ** 2 + abs(right) ** 2)
    assume(norm > 1e-3)
    return PolarizationState(up / norm, right / norm)


@st.composite
def balanced_states(draw):
    """Random state with both linear components well away from zero."""
    state = draw(polarization_states())
    assume(abs(state.amp_up) > 1e-2 and abs(state.amp_right) > 1e-2)
    return state


@st.composite
def quadruples(draw, low: float = 0.01):
    values = [
        draw(st.floats(min_value=low, max_value=1.0, **finite)) for _ in range(4)
    ]
    return IntensityQuadruple(*values)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


REPO = pathlib.Path(__file__).resolve().parent.parent


def run_python(args, cwd, timeout=120, env=()):
    """Run ``python *args`` in a child process that imports this checkout's
    package, with the variables ``env`` added, and return the completed
    process."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, **dict(env), PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=timeout,
    )
