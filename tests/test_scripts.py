"""Smoke tests: every shipped script runs to exit code 0."""

from conftest import REPO, run_python


def run_script(name, *args, cwd):
    result = run_python([str(REPO / "scripts" / name), *args], cwd=cwd)
    assert result.returncode == 0, result.stderr
    return result


def test_make_charts(tmp_path):
    run_script("make_charts.py", "--out-dir", str(tmp_path / "charts"), cwd=tmp_path)
    assert len(list((tmp_path / "charts").glob("*.csv"))) == 4


def test_run_golden(tmp_path):
    result = run_script("run_golden.py", "--out-dir", str(tmp_path / "results"), cwd=tmp_path)
    configs = list((REPO / "configs").glob("*.cfg"))
    assert len(list((tmp_path / "results").glob("*.csv"))) == len(configs)
    assert result.stdout.count("   exit 0 in ") == len(configs)


def test_cascade_stats(tmp_path):
    result = run_script("cascade_stats.py", "--trials", "20000", cwd=tmp_path)
    assert result.stdout.count("trials=20000 ") == 2
