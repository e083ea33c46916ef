import dis
import enum
import hashlib
import math
import re
import types

import numpy as np
import pytest

from partial_eraser import (
    Axis,
    Branch,
    DetectorPlacement,
    DomainError,
    PartialMeasurementOp,
    PolarizationState,
    ZeroSurvival,
    apply_sequence,
    basis_state,
    beam_intensities,
    build_cascade,
    cascade_measure,
    equivalent_op,
    no_click_map,
)
from partial_eraser import cascade as cascade_module
from partial_eraser import epr, measurement, montecarlo
from partial_eraser.cascade import Cascade
from partial_eraser.polarization import NORM_TOL

from conftest import (
    amplitude_distance,
    outcome_text,
    signed_part_states,
    tiny_part_states,
    unit_states,
)

DIAG = basis_state(Axis.Y, Branch.PLUS)


def propagate_intensities_oracle(transmissions):
    """Explicit intensity propagation down the mirror chain."""
    remaining = 1.0
    beams = []
    for t in transmissions:
        beams.append(remaining * (1.0 - t))
        remaining *= t
    return beams, remaining


class TestBuildCascade:
    def test_hundred_beams_are_one_percent_each(self):
        cascade = build_cascade(100)
        assert cascade.transmissions[0] == pytest.approx(99 / 100)
        assert cascade.transmissions[1] == pytest.approx(98 / 99)
        assert all(abs(i - 0.01) < 1e-12 for i in beam_intensities(cascade))

    def test_single_beam(self):
        cascade = build_cascade(1)
        assert cascade.transmissions == (0.0,)
        assert beam_intensities(cascade) == (1.0,)

    def test_four_beams(self):
        cascade = build_cascade(4)
        assert cascade.transmissions == pytest.approx((3 / 4, 2 / 3, 1 / 2, 0.0))
        beams, leftover = propagate_intensities_oracle(cascade.transmissions)
        assert beams == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-15)
        assert leftover == 0.0
        assert beam_intensities(cascade) == pytest.approx(beams)

    def test_rejects_zero_beams(self):
        with pytest.raises(DomainError):
            build_cascade(0)

    @pytest.mark.parametrize("n", [2, 7, 100, 333])
    def test_intensity_conservation(self, n):
        total = sum(beam_intensities(build_cascade(n)))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestValidation:
    @pytest.mark.parametrize("index", [2.0, 1.5, True, False], ids=repr)
    def test_placement_rejects_non_integer_indices(self, index):
        message = f"beam index must be an integer, got {index!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            DetectorPlacement(Branch.PLUS, frozenset({5, index}))

    @pytest.mark.parametrize("indices", [{-1}, {-3, 0, 2}, {np.int64(-1)}], ids=repr)
    def test_placement_rejects_negative_indices(self, indices):
        message = f"beam index must be >= 0, got {min(indices)!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            DetectorPlacement(Branch.PLUS, frozenset(indices))

    def test_placement_accepts_numpy_integers(self):
        placement = DetectorPlacement(Branch.PLUS, frozenset(np.arange(3)))
        assert placement.n_detectors == 3
        # Stored as Python ints, so a click reports ``1``, not ``np.int64(1)``.
        placement = DetectorPlacement(Branch.PLUS, np.arange(3))
        assert all(type(index) is int for index in placement.beam_indices)
        up = basis_state(Axis.X, Branch.PLUS)  # clicks with certainty on all 3 beams
        middle = types.SimpleNamespace(random=lambda: 0.5)  # picks the second detector
        outcome = cascade_measure(up, placement, Cascade(3), middle)
        assert outcome.clicked and type(outcome.detector) is int and outcome.detector == 1

    def test_placement_reads_a_generator_once(self):
        """Indices given as a one-shot iterator are checked and stored
        from one pass, not checked and then found empty."""
        placement = DetectorPlacement(Branch.PLUS, (index for index in (3, 1)))
        assert placement.beam_indices == frozenset({1, 3}) and placement.n_detectors == 2

    @pytest.mark.parametrize(
        "listed, distinct", [([1, 1], {1}), ([3, 0, 3, 0, 3], {0, 3})], ids=repr
    )
    def test_repeated_indices_count_once(self, listed, distinct):
        """A placement counts each beam once, however often it is listed:
        on one seeded stream it samples as its distinct indices do, bit
        for bit."""
        texts = []
        for indices in (listed, distinct):
            stream = np.random.default_rng(CASCADE_PINNED_SEED)
            for branch in Branch:
                placement = DetectorPlacement(branch, indices)
                assert placement.n_detectors == len(distinct)
                for state in cascade_inputs(np.random.default_rng(CASCADE_PINNED_SEED)):
                    for _ in range(20):
                        outcome = cascade_measure(state, placement, Cascade(4), stream)
                        texts.append(outcome_text(outcome))
        listed_texts, distinct_texts = texts[: len(texts) // 2], texts[len(texts) // 2 :]
        assert sum(text.startswith("True") for text in distinct_texts) > 100
        assert listed_texts == distinct_texts

    @pytest.mark.parametrize("n_beams", [0, -2])
    def test_cascade_validates_itself(self, n_beams):
        with pytest.raises(DomainError):
            Cascade(n_beams)

    @pytest.mark.parametrize("n_beams", [2.5, 4.0, True, False, "4"], ids=repr)
    def test_cascade_rejects_non_integer_beam_counts(self, n_beams):
        with pytest.raises(DomainError, match="n_beams must be an integer"):
            Cascade(n_beams)

    def test_cascade_stores_numpy_beam_counts_as_int(self):
        cascade = Cascade(np.int64(4))
        assert type(cascade.n_beams) is int and cascade == Cascade(4)
        placement = DetectorPlacement(Branch.PLUS, frozenset({0}))
        outcome = cascade_measure(DIAG, placement, cascade, _AlwaysSilent())
        assert type(outcome.probability) is float
        assert outcome == cascade_measure(DIAG, placement, Cascade(4), _AlwaysSilent())

    @pytest.mark.parametrize("n", [1, 3, 100])
    def test_transmissions_follow_from_the_beam_count(self, n):
        assert Cascade(n).transmissions == build_cascade(n).transmissions


class TestCascadeMeasure:
    def test_single_detector_click_rate(self, rng):
        cascade = build_cascade(100)
        placement = DetectorPlacement(Branch.PLUS, frozenset({3}))
        trials = 100_000
        clicks = sum(
            cascade_measure(DIAG, placement, cascade, rng).clicked for _ in range(trials)
        )
        sigma = math.sqrt(0.005 * 0.995 / trials)
        assert abs(clicks / trials - 0.005) < 3 * sigma

    def test_no_detectors_is_identity(self, rng):
        cascade = build_cascade(100)
        placement = DetectorPlacement(Branch.PLUS, frozenset())
        for _ in range(100):
            outcome = cascade_measure(DIAG, placement, cascade, rng)
            assert not outcome.clicked
            assert outcome.post_state is DIAG

    def test_measure_then_erase_survival(self, rng):
        cascade = build_cascade(100)
        measure = DetectorPlacement(Branch.PLUS, frozenset(range(50)))
        erase = DetectorPlacement(Branch.MINUS, frozenset(range(50)))
        trials = 100_000
        survived = 0
        for _ in range(trials):
            outcome = cascade_measure(DIAG, measure, cascade, rng)
            if outcome.clicked:
                continue
            outcome = cascade_measure(outcome.post_state, erase, cascade, rng)
            if not outcome.clicked:
                survived += 1
        sigma = math.sqrt(0.5 * 0.5 / trials)
        assert abs(survived / trials - 0.5) < 3 * sigma

    @pytest.mark.parametrize("branch", list(Branch))
    def test_outcomes_match_measurement_layer(self, branch):
        # each pass takes a fresh random state: a click leaves the checked
        # basis state, a silence the checked no-click map
        gen = np.random.default_rng(17)
        cascade = build_cascade(100)
        for _ in range(300):
            parts = gen.normal(size=4)
            up, right = complex(parts[0], parts[1]), complex(parts[2], parts[3])
            norm = math.sqrt(abs(up) ** 2 + abs(right) ** 2)
            state = PolarizationState(up / norm, right / norm)
            size = int(gen.integers(0, 101))
            placement = DetectorPlacement(
                branch, frozenset(gen.choice(100, size, replace=False).tolist())
            )
            outcome = cascade_measure(state, placement, cascade, gen)
            if outcome.clicked:
                assert outcome.post_state == basis_state(Axis.X, branch)
            else:
                op = equivalent_op(placement, cascade)
                assert outcome.post_state == no_click_map(op, state)

    def test_out_of_range_indices_rejected(self, rng):
        cascade = build_cascade(10)
        with pytest.raises(DomainError):
            cascade_measure(DIAG, DetectorPlacement(Branch.PLUS, frozenset({10})), cascade, rng)

    @pytest.mark.parametrize("size", [1, 30, 100])
    def test_distribution_matches_abstract_op(self, size, rng):
        # equivalence oracle: empirical rate against the abstract operator
        cascade = build_cascade(100)
        placement = DetectorPlacement(Branch.PLUS, frozenset(range(size)))
        op = equivalent_op(placement, cascade)
        assert op == PartialMeasurementOp(Axis.X, Branch.PLUS, (100 - size) / 100)
        trials = 40_000
        clicks = 0
        for _ in range(trials):
            outcome = cascade_measure(DIAG, placement, cascade, rng)
            if outcome.clicked:
                clicks += 1
            else:
                assert amplitude_distance(outcome.post_state, no_click_map(op, DIAG)) == 0.0
        expected = size / 200
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(clicks / trials - expected) < 5 * sigma

    def test_click_reports_uniform_detector(self, rng):
        cascade = build_cascade(10)
        indices = frozenset({1, 4, 7})
        placement = DetectorPlacement(Branch.PLUS, indices)
        counts = {i: 0 for i in indices}
        trials = 60_000
        total_clicks = 0
        for _ in range(trials):
            outcome = cascade_measure(DIAG, placement, cascade, rng)
            if outcome.clicked:
                assert outcome.detector in indices
                counts[outcome.detector] += 1
                total_clicks += 1
        for count in counts.values():
            p = 1 / 3
            sigma = math.sqrt(p * (1 - p) * total_clicks)
            assert abs(count - total_clicks / 3) < 5 * sigma


def pass_fields(state, placement, cascade, rng):
    """One pass's ``clicked``, ``probability`` bits, ``post_state`` bits
    and the firing detector's rank within the placement, or
    ``"ZeroSurvival"``."""
    try:
        outcome = cascade_measure(state, placement, cascade, rng)
    except ZeroSurvival:
        return "ZeroSurvival"
    rank = None if outcome.detector is None else placement._ordered.index(outcome.detector)
    return outcome.clicked, repr(outcome.probability), repr(outcome.post_state), rank


class TestPlacementInvariance:
    def test_same_size_placements_pass_alike(self):
        """Only the detector count matters: two random placements of one
        size, each driven by its own stream from the same seed, give the
        same pass bit for bit, and a click fires the detector of the same
        rank.  Their equivalent ops are equal too."""
        cascade = build_cascade(100)
        gen = np.random.default_rng(20261019)
        starts = [(DIAG, 500)] + [(state, 100) for state in unit_states(gen, 5)]
        passes = clicks = 0
        for state, n_passes in starts:
            for size in (0, 1, 10, 50, 99, 100):
                for branch in Branch:
                    place_a, place_b = (
                        DetectorPlacement(
                            branch, frozenset(gen.choice(100, size=size, replace=False).tolist())
                        )
                        for _ in range(2)
                    )
                    assert equivalent_op(place_a, cascade) == equivalent_op(place_b, cascade)
                    seed = int(gen.integers(2**63))
                    rng_a = np.random.default_rng(seed)
                    rng_b = np.random.default_rng(seed)
                    for _ in range(n_passes):
                        fields_a = pass_fields(state, place_a, cascade, rng_a)
                        assert fields_a == pass_fields(state, place_b, cascade, rng_b)
                        clicks += fields_a[0]
                    passes += n_passes
        assert passes == 12 * (500 + 5 * 100)
        assert 0 < clicks < passes

    def test_combined_branches_equal_single_measurement(self):
        # 50 detectors on the up branch vs 90 up + 80 right: same unmeasured
        # ratio (0.5 / 1 = 0.1 / 0.2), so the surviving states coincide.
        cascade = build_cascade(100)

        def no_click_state(placements):
            return apply_sequence([equivalent_op(p, cascade) for p in placements], DIAG)

        lone = no_click_state([DetectorPlacement(Branch.PLUS, frozenset(range(50)))])
        combined = no_click_state(
            [
                DetectorPlacement(Branch.PLUS, frozenset(range(90))),
                DetectorPlacement(Branch.MINUS, frozenset(range(80))),
            ]
        )
        assert amplitude_distance(lone, combined) < 1e-12


CASCADE_PINNED_SEED = 20261018


def pinned_placements(gen, branch):
    """No detectors, every beam, and random subsets, each on a cascade of
    1 to 100 beams; the last case is all 100 beams of a 100-beam cascade."""
    for size in ("none", "all", "random", "random", "random", "random"):
        n = 1 + int(gen.random() * 100)
        m = {"none": 0, "all": n}.get(size, int(gen.random() * (n + 1)))
        keys = gen.random(n)
        beams = sorted(range(n), key=keys.__getitem__)[:m]
        yield DetectorPlacement(branch, frozenset(beams)), build_cascade(n)
    yield DetectorPlacement(branch, frozenset(range(100))), build_cascade(100)


class _AlwaysSilent:
    """An rng stub whose every draw is the largest uniform below 1, so a
    pass with fewer detectors than beams never clicks."""

    def random(self):
        return 1.0 - 2.0**-53


def test_silent_pass_bits_match_no_click_map():
    """The silent post-state of ``cascade_measure`` is the general
    ``no_click_map`` of its equivalent op, bit for bit, on signed zeros."""
    cascade = build_cascade(4)
    cases = mismatches = 0
    for state in signed_part_states():
        for branch in Branch:
            for m in range(1, cascade.n_beams):
                placement = DetectorPlacement(branch, frozenset(range(m)))
                outcome = cascade_measure(state, placement, cascade, _AlwaysSilent())
                expected = no_click_map(equivalent_op(placement, cascade), state)
                cases += 1
                mismatches += repr(outcome.post_state) != repr(expected)
    assert (cases, mismatches) == (2880, 0)


def test_every_silent_pass_leaves_a_unit_state():
    """A silent pass divides by the square root of a positive survival, so
    its post-state has unit norm up to rounding, with no zero vector to
    guard against: on tiny and zero components and on random states, for
    both branches and every detector count of a 100-beam cascade."""
    cascade = build_cascade(100)
    placements = [
        DetectorPlacement(branch, frozenset(range(m))) for branch in Branch for m in range(101)
    ]
    states = [*tiny_part_states(), *unit_states(np.random.default_rng(52), 400)]
    passes, worst = 0, 0.0
    for state in states:
        for placement in placements:
            outcome = cascade_measure(state, placement, cascade, _AlwaysSilent())
            if not outcome.clicked:
                post = outcome.post_state
                passes += 1
                worst = max(worst, abs(abs(post.amp_up) ** 2 + abs(post.amp_right) ** 2 - 1.0))
    # only the 120 tiny-part states' unit branch, fully measured, clicks
    assert (len(states), passes) == (520, 520 * 202 - 120)
    assert worst <= NORM_TOL


# The per-pass kernels of the samplers, the pair algebra and the oracles.
HOT_KERNELS = (
    cascade_module.cascade_measure,
    measurement._outcome,
    measurement._silence,
    measurement._silent_state,
    measurement.no_click_map,
    measurement._step,
    epr.apply_partial_pair,
    epr.sample_partial_pair,
    epr._pair_step,
    epr._unit_amplitudes,
    epr._unit_pair,
    epr.collapse_pair,
    epr._silence,
    epr._click,
    epr.apply_quadruple,
    epr.pair_axis_amplitudes,
    cascade_module.equivalent_op,
    montecarlo.enumerate_event_tree,
    montecarlo._leaf,
    montecarlo._click_tails,
    montecarlo._click_leaves,
    montecarlo._final_outcomes,
    montecarlo._algebra,
    montecarlo.CascadeStep.__post_init__,
)


def code_objects(code):
    """``code`` and the code of every generator, comprehension and nested
    function in it, which ``dis.get_instructions`` does not enter."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def test_hot_kernels_load_no_enum_class():
    """On Python 3.11 ``EnumType`` defines ``__getattr__``, so every
    attribute load on an enum class, as in ``Branch.PLUS``, takes the slow
    attribute hook, and ``Enum.value`` is a Python-level property.  The
    kernels read members from module constants and read no ``.value``."""
    offenders = {}
    for kernel in HOT_KERNELS:
        names = [
            ins.argval if ins.opname == "LOAD_GLOBAL" else f".{ins.argval}"
            for code in code_objects(kernel.__code__)
            for ins in dis.get_instructions(code)
            if ins.opname == "LOAD_GLOBAL"
            and isinstance(kernel.__globals__.get(ins.argval), enum.EnumMeta)
            or ins.opname == "LOAD_ATTR"
            and ins.argval == "value"
        ]
        if names:
            offenders[f"{kernel.__module__}.{kernel.__name__}"] = names
    assert offenders == {}


CASCADE_OUTCOMES_DIGEST = "163c96cd1aeeadfc8748f2e004f9022015fdd662a22dcc0ecf52bd8c9f371672"


def cascade_inputs(gen):
    """The six basis states, then 60 random unit states."""
    for axis in Axis:
        for branch in Branch:
            yield basis_state(axis, branch)
    yield from unit_states(gen, 60)


def test_cascade_outcomes_pinned():
    """(state, branch, placement) passes of ``cascade_measure`` on one
    seeded stream: each outcome's ``clicked``, probability, post-state
    amplitudes and detector.  Any change to their bits, to a signed zero
    or to where ZeroSurvival is raised changes the digest."""
    gen = np.random.default_rng(CASCADE_PINNED_SEED)
    stream = np.random.default_rng(CASCADE_PINNED_SEED + 1)
    lines = []
    for state in cascade_inputs(gen):
        for branch in Branch:
            for placement, cascade in pinned_placements(gen, branch):
                try:
                    lines.append(outcome_text(cascade_measure(state, placement, cascade, stream)))
                except ZeroSurvival:
                    lines.append("ZeroSurvival")
    assert (len(lines), lines.count("ZeroSurvival")) == (924, 0)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CASCADE_OUTCOMES_DIGEST
