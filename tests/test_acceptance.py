"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.
Criterion 5's boundary bracket [8.25, 8.35] does not contain the actual
margin root (8.352410...); that check fails by construction and is kept
red deliberately.  See the suite's boundary regression test for the
pinned true value.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from partial_eraser import (
    Axis,
    Branch,
    CascadeStep,
    DetectorPlacement,
    ExperimentConfig,
    IntensityQuadruple,
    MeasureStep,
    PartialMeasurementOp,
    Photon,
    PolarizationState,
    Preparation,
    apply_partial_pair,
    apply_quadruple,
    apply_sequence,
    basis_state,
    build_cascade,
    cascade_measure,
    delta_ac,
    delta_pair,
    enumerate_event_tree,
    make_epr,
    run_experiment,
    trial_stream,
    violation_region,
    weighted_epr_track,
    y_correlation_single,
)
from partial_eraser.cli import main
from partial_eraser.epr import pair_distance
from partial_eraser.montecarlo import iter_trials

from conftest import amplitude_distance

EXACT_BOUNDARY = 8.352410032042774  # root of delta_ac(r) = 2 delta(r) above 1


def check(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_state(rng) -> PolarizationState:
    parts = rng.normal(size=4)
    up = complex(parts[0], parts[1])
    right = complex(parts[2], parts[3])
    norm = math.sqrt(abs(up) ** 2 + abs(right) ** 2)
    if norm < 1e-6:
        return basis_state(Axis.Y, Branch.PLUS)
    return PolarizationState(up / norm, right / norm)


def op(axis, branch, alpha):
    return PartialMeasurementOp(axis, branch, alpha)


def test_criterion_1_diagonal_correlation():
    value = y_correlation_single(0.5)
    check("1a", abs(value - 0.97140) < 5e-5, f"C_y(0.5) = {value:.6f} vs 0.97140")

    start = time.perf_counter()
    config = ExperimentConfig(
        preparation=Preparation.epr(),
        plan=(MeasureStep(Photon.A, op(Axis.X, Branch.PLUS, 0.5)),),
        final_axis=Axis.Y,
        trials=100_000,
        master_seed=2024,
    )
    stats = run_experiment(config)
    elapsed = time.perf_counter() - start
    sigma = math.sqrt(value * (1 - value) / stats.surviving)
    check(
        "1b",
        abs(stats.agreement_rate - value) < 3 * sigma,
        f"MC agreement {stats.agreement_rate:.5f} vs {value:.5f} (3 sigma = {3 * sigma:.5f})",
    )
    check("1c", elapsed < 5.0, f"runtime {elapsed:.2f} s < 5 s")


def test_criterion_2_erasure_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        state = random_state(rng)
        alpha = 1.0 - rng.random()  # (0, 1]
        restored = apply_sequence(
            [op(Axis.X, Branch.PLUS, alpha), op(Axis.X, Branch.MINUS, alpha)], state
        )
        worst = max(worst, amplitude_distance(restored, state))
    check("2", worst < 1e-12, f"max restoration distance {worst:.2e} over 1000 pairs")


def test_criterion_3_ratio_only_dependence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        base = IntensityQuadruple(*(0.01 + 0.99 * rng.random(4)))
        scale_a, scale_b = 0.05 + 0.95 * rng.random(2)
        scaled = IntensityQuadruple(
            base.alpha * scale_a, base.beta * scale_a,
            base.gamma * scale_b, base.delta * scale_b,
        )
        worst = max(
            worst,
            pair_distance(
                apply_quadruple(make_epr(), base), apply_quadruple(make_epr(), scaled)
            ),
        )
    family = [
        IntensityQuadruple(0.5, 1.0, 1.0, 1.0),
        IntensityQuadruple(0.1, 0.2, 1.0, 1.0),
        IntensityQuadruple(0.01, 0.02, 1.0, 1.0),
    ]
    states = [apply_quadruple(make_epr(), quad) for quad in family]
    family_worst = max(pair_distance(states[0], other) for other in states[1:])
    check(
        "3",
        worst < 1e-12 and family_worst < 1e-12,
        f"max distance {max(worst, family_worst):.2e} (1000 random pairs + fixed family)",
    )


def test_criterion_4_numeric_triple():
    d_ab = delta_pair(2.0)
    d_ac = delta_ac(2.0)
    margin = d_ac - 2 * d_ab
    ok = (
        round(d_ab, 2) == 0.03
        and abs(d_ac - 0.10) < 1e-12
        and abs(margin - 0.04281) < 1e-5
        and d_ac > 2 * d_ab
    )
    check(
        "4",
        ok,
        f"delta(2) = {d_ab:.5f} (~3%), delta_ac(2) = {d_ac:.5f}, margin = {margin:.5f}",
    )


def test_criterion_5_boundary_bracket():
    _, high = violation_region(1e-6)
    check("5a", 8.25 <= high <= 8.35, f"boundary {high:.6f} expected in [8.25, 8.35]")


def test_criterion_5_identities():
    ok = True
    for rho in np.geomspace(0.1, 100.0, 500):
        ok = ok and abs(delta_ac(rho) - delta_pair(rho * rho)) < 1e-12
        ok = ok and abs(delta_pair(rho) - delta_pair(1.0 / rho)) < 1e-12
    check("5b", ok, "chaining and reciprocal-symmetry identities hold to 1e-12")


def test_boundary_regression_pinned():
    # the actual root, pinned independently of the bracket check above
    _, high = violation_region(1e-9)
    assert high == pytest.approx(EXACT_BOUNDARY, abs=1e-7)


def test_criterion_6_cascade_statistics():
    start = time.perf_counter()
    rng = trial_stream(606, 0)
    cascade = build_cascade(100)
    diag = basis_state(Axis.Y, Branch.PLUS)
    trials = 1_000_000

    single = DetectorPlacement(Branch.PLUS, frozenset({3}))
    clicks = sum(
        cascade_measure(diag, single, cascade, rng).clicked for _ in range(trials)
    )
    rate = clicks / trials
    sigma = math.sqrt(0.005 * 0.995 / trials)
    check(
        "6a",
        abs(rate - 0.005) < 3 * sigma,
        f"single-detector click rate {rate:.6f} vs 0.005 (3 sigma = {3 * sigma:.6f})",
    )

    measure = DetectorPlacement(Branch.PLUS, frozenset(range(50)))
    erase = DetectorPlacement(Branch.MINUS, frozenset(range(50)))
    survived = 0
    for _ in range(trials):
        outcome = cascade_measure(diag, measure, cascade, rng)
        if outcome.clicked:
            continue
        if not cascade_measure(outcome.post_state, erase, cascade, rng).clicked:
            survived += 1
    survival = survived / trials
    sigma = math.sqrt(0.25 / trials)
    check(
        "6b",
        abs(survival - 0.5) < 3 * sigma,
        f"measure-then-erase survival {survival:.6f} vs 0.5 (3 sigma = {3 * sigma:.6f})",
    )
    elapsed = time.perf_counter() - start
    check("6c", elapsed < 30.0, f"runtime {elapsed:.1f} s < 30 s")


def test_criterion_7_weighted_bookkeeping():
    first_epr, first_anti = weighted_epr_track(IntensityQuadruple(0.5, 1.0, 1.0, 1.0))
    second_epr, second_anti = weighted_epr_track(IntensityQuadruple(0.5, 0.5, 1.0, 1.0))
    surviving_intensity = second_epr**2
    ok = (
        abs(first_epr - 0.85355) < 5e-6
        and second_anti == 0.0
        and abs(surviving_intensity - 0.50000) < 5e-6
    )
    check(
        "7",
        ok,
        f"EPR part {first_epr:.5f} then amplitude {second_epr:.5f} "
        f"= surviving intensity {surviving_intensity:.5f}",
    )


def test_criterion_8_order_sensitivity():
    diag = basis_state(Axis.Y, Branch.PLUS)
    alpha = 0.9
    reverse_string = [
        op(Axis.X, Branch.PLUS, alpha),
        op(Axis.Y, Branch.PLUS, alpha),
        op(Axis.Z, Branch.PLUS, alpha),
        op(Axis.Z, Branch.MINUS, alpha),
        op(Axis.Y, Branch.MINUS, alpha),
        op(Axis.X, Branch.MINUS, alpha),
    ]
    restored = apply_sequence(reverse_string, diag)
    dist = amplitude_distance(restored, diag)
    check("8a", dist < 1e-12, f"reverse-order counter string distance {dist:.2e}")

    same_order = [
        op(Axis.X, Branch.PLUS, alpha),
        op(Axis.Y, Branch.PLUS, alpha),
        op(Axis.Z, Branch.PLUS, alpha),
        op(Axis.X, Branch.MINUS, alpha),
        op(Axis.Y, Branch.MINUS, alpha),
        op(Axis.Z, Branch.MINUS, alpha),
    ]
    dist = amplitude_distance(apply_sequence(same_order, diag), diag)
    check("8b", dist > 1e-3, f"same-order counter string distance {dist:.2e} > 1e-3")

    pair = make_epr()
    measured = apply_partial_pair(pair, Photon.A, op(Axis.X, Branch.PLUS, alpha))
    measured = apply_partial_pair(measured, Photon.A, op(Axis.Y, Branch.PLUS, alpha))

    partner_in_order = apply_partial_pair(
        measured, Photon.B, op(Axis.X, Branch.MINUS, alpha)
    )
    partner_in_order = apply_partial_pair(
        partner_in_order, Photon.B, op(Axis.Y, Branch.MINUS, alpha)
    )
    dist = pair_distance(partner_in_order, pair)
    check("8c", dist < 1e-12, f"partner counters in measurement order: {dist:.2e}")

    partner_reversed = apply_partial_pair(
        measured, Photon.B, op(Axis.Y, Branch.MINUS, alpha)
    )
    partner_reversed = apply_partial_pair(
        partner_reversed, Photon.B, op(Axis.X, Branch.MINUS, alpha)
    )
    dist = pair_distance(partner_reversed, pair)
    check("8d", dist > 1e-3, f"partner counters reversed: {dist:.2e} > 1e-3")


TOY_CONFIG = ExperimentConfig(
    preparation=Preparation.single(Branch.PLUS),
    plan=(
        CascadeStep(Photon.A, Branch.PLUS, 2, 4),
        CascadeStep(Photon.A, Branch.MINUS, 1, 4),
    ),
    final_axis=Axis.Y,
    trials=100_000,
    master_seed=909,
)


def toy_leaf_weights():
    per_det_0 = 0.5 * 0.5 / 2
    pass_0 = 0.75
    per_det_1 = pass_0 * ((1 / 4) * (2 / 3))
    survive = pass_0 * (1 - (1 / 4) * (2 / 3))
    p_diag = (math.sqrt(2 / 5) + math.sqrt(3 / 5)) ** 2 / 2
    return {
        "click@0:det0": per_det_0,
        "click@0:det1": per_det_0,
        "click@1:det0": per_det_1,
        "final:plus": survive * p_diag,
        "final:minus": survive * (1 - p_diag),
    }


def test_criterion_9_exhaustive_oracle():
    expected = toy_leaf_weights()
    leaves = enumerate_event_tree(TOY_CONFIG)
    worst = max(
        abs(leaf.probability - expected[leaf.path[-1]]) for leaf in leaves
    )
    total = sum(leaf.probability for leaf in leaves)
    check(
        "9a",
        worst < 1e-12 and abs(total - 1.0) < 1e-12,
        f"tree weights match closed forms (worst {worst:.2e}, total {total:.15f})",
    )

    def key(record):
        if record.click_step is not None:
            return f"click@{record.click_step}:det{record.detector}"
        return f"final:{record.result_a.value}"

    counts = Counter(key(r) for r in iter_trials(TOY_CONFIG))
    n = TOY_CONFIG.trials
    worst_z = max(
        abs(counts[k] / n - p) / math.sqrt(p * (1 - p) / n)
        for k, p in expected.items()
    )
    check("9b", worst_z < 5.0, f"MC frequencies within 5 sigma (worst z = {worst_z:.2f})")


def test_criterion_10_determinism(tmp_path):
    chart_a, chart_b = tmp_path / "c1.csv", tmp_path / "c2.csv"
    for out in (chart_a, chart_b):
        assert main(["chart", "inequality_deltas_vs_rho", "--min", "1", "--max", "20",
                     "--scale", "log", "--output", str(out)]) == 0
    config = tmp_path / "exp.cfg"
    config.write_text(
        "preparation = epr\ntrials = 20000\nseed = 1234\nop = A,x,plus,0.5\n"
    )
    run_a, run_b = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (run_a, run_b):
        assert main(["run", str(config), "--output", str(out)]) == 0
    ok = (
        chart_a.read_bytes() == chart_b.read_bytes()
        and run_a.read_bytes() == run_b.read_bytes()
    )
    check("10", ok, "chart and run CSVs byte-identical across reruns")
