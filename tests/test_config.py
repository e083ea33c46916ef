import pytest

from partial_eraser import (
    Axis,
    Branch,
    CascadeStep,
    ConfigError,
    ExperimentConfig,
    MeasureStep,
    PartialMeasurementOp,
    Photon,
    Preparation,
)
from partial_eraser.config import (
    SEED_ENV_VAR,
    format_experiment,
    parse_experiment_text,
    resolve_config,
    resolve_seed,
)

GOLDEN_TEXT = """
# a comment line
preparation = epr
trials = 500
seed = 9
final_axis = y
op = A,x,plus,0.5     # trailing comment
op = B,x,minus,0.5
cascade = A,plus,30,100
"""


def test_parse_golden_text():
    parsed = parse_experiment_text(GOLDEN_TEXT)
    config = resolve_config(parsed)
    assert config.preparation == Preparation.epr()
    assert config.trials == 500
    assert config.master_seed == 9
    assert config.final_axis is Axis.Y
    assert config.plan == (
        MeasureStep(Photon.A, PartialMeasurementOp(Axis.X, Branch.PLUS, 0.5)),
        MeasureStep(Photon.B, PartialMeasurementOp(Axis.X, Branch.MINUS, 0.5)),
        CascadeStep(Photon.A, Branch.PLUS, 30, 100),
    )


def test_round_trip_preserves_order():
    parsed = parse_experiment_text(GOLDEN_TEXT)
    config = resolve_config(parsed)
    again = resolve_config(parse_experiment_text(format_experiment(config)))
    assert again == config


def test_round_trip_single_photon():
    config = ExperimentConfig(
        preparation=Preparation.single(Branch.MINUS),
        plan=(MeasureStep(Photon.A, PartialMeasurementOp(Axis.Z, Branch.PLUS, 0.25)),),
        final_axis=Axis.Z,
        trials=10,
        master_seed=3,
    )
    assert resolve_config(parse_experiment_text(format_experiment(config))) == config


def test_branch_aliases():
    parsed = parse_experiment_text(
        "preparation = epr\nop = A,x,up,0.5\nop = A,y,antidiag,0.5\nop = B,z,lcirc,1\n"
    )
    assert parsed.plan[0].op.branch is Branch.PLUS
    assert parsed.plan[1].op.branch is Branch.MINUS
    assert parsed.plan[2].op.axis is Axis.Z


def test_alias_axis_mismatch_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_experiment_text("preparation = epr\nop = A,y,up,0.5\n")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("trials 100", "key = value"),
        ("preparation = epr\npreparation = epr", "duplicate"),
        ("mood = calm", "unknown key"),
        ("op = A,x,plus", "op needs"),
        ("op = C,x,plus,0.5", "unknown photon"),
        ("op = A,w,plus,0.5", "unknown axis"),
        ("op = A,x,sideways,0.5", "unknown branch"),
        ("op = A,x,plus,1.5", "alpha"),
        ("cascade = A,plus,7,4", "n_detectors"),
        ("trials = soon", "integer"),
        ("preparation = banana", "unknown preparation"),
        ("preparation = singlet", "unknown preparation"),
        ("preparation = single_photon", "unknown preparation"),
        ("preparation = single minus", "unknown preparation"),
        ("preparation = epr:plus", "unknown preparation"),
    ],
)
def test_malformed_lines(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_experiment_text(text)


@pytest.mark.parametrize(
    "token, shown", [("1.5", "1.5"), ("nan", "nan"), ("-0.1", "-0.1"), ("1e400", "inf")]
)
def test_alpha_range_message(token, shown):
    with pytest.raises(ConfigError) as exc:
        parse_experiment_text(f"preparation = epr\nop = A,x,plus,{token}\n")
    assert str(exc.value) == f"line 2: alpha must lie in [0, 1], got {shown}"


@pytest.mark.parametrize(
    "token, branch",
    [
        ("single", Branch.PLUS),
        ("single:minus", Branch.MINUS),
        ("single : minus", Branch.MINUS),
        ("Single :antidiag", Branch.MINUS),
        ("single:plus", Branch.PLUS),
    ],
)
def test_single_preparation_forms(token, branch):
    parsed = parse_experiment_text(f"preparation = {token}\n")
    assert parsed.preparation == Preparation.single(branch)


def test_missing_preparation_rejected():
    with pytest.raises(ConfigError, match="preparation"):
        resolve_config(parse_experiment_text("trials = 10"))


def test_defaults(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    config = resolve_config(parse_experiment_text("preparation = epr"))
    assert config.trials == 100_000
    assert config.final_axis is Axis.Y
    assert config.master_seed == 0


class TestSeedPrecedence:
    def test_flag_beats_everything(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "13")
        assert resolve_seed(5, 9) == 5

    def test_file_beats_env(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "13")
        assert resolve_seed(None, 9) == 9

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "13")
        assert resolve_seed(None, None) == 13

    def test_default_zero(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert resolve_seed(None, None) == 0

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "many")
        with pytest.raises(ConfigError):
            resolve_seed(None, None)


def test_overrides():
    parsed = parse_experiment_text("preparation = epr\ntrials = 10\nseed = 1")
    config = resolve_config(parsed, seed=2, trials=20)
    assert (config.master_seed, config.trials) == (2, 20)
