"""tools/check_bench.py: the microbenchmark regression gate."""

import importlib.util
import io
import json
from pathlib import Path

_REPO = Path(__file__).resolve().parents[2]
BASELINE = _REPO / "benchmarks" / "BENCH_baseline.json"


def load_check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", _REPO / "tools" / "check_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_bench(path, means):
    path.write_text(json.dumps({"benchmarks": [
        {"fullname": name, "stats": {"mean": mean}}
        for name, mean in means.items()]}))
    return path


def run_check(baseline, fresh):
    out = io.StringIO()
    status = load_check_bench().check(str(baseline), str(fresh), out=out)
    return status, out.getvalue()


def test_committed_baseline_is_readable():
    means = load_check_bench().load_means(str(BASELINE))
    assert len(means) >= 10


def test_missing_baseline_fails(tmp_path):
    fresh = write_bench(tmp_path / "fresh.json", {"a": 0.1})
    status, text = run_check(tmp_path / "absent.json", fresh)
    assert status == 1
    assert "cannot read the baseline" in text


def test_disjoint_runs_fail(tmp_path):
    baseline = write_bench(tmp_path / "base.json", {"a": 0.1})
    fresh = write_bench(tmp_path / "fresh.json", {"b": 0.1})
    status, text = run_check(baseline, fresh)
    assert status == 1
    assert "share no benchmark" in text


def test_regression_relative_to_median_fails(tmp_path):
    baseline = write_bench(tmp_path / "base.json",
                           {"a": 0.1, "b": 0.1, "c": 0.1})
    steady = write_bench(tmp_path / "steady.json",
                         {"a": 0.2, "b": 0.2, "c": 0.2})
    assert run_check(baseline, steady)[0] == 0  # uniform: machine speed
    regressed = write_bench(tmp_path / "regressed.json",
                            {"a": 0.1, "b": 0.1, "c": 0.2})
    status, text = run_check(baseline, regressed)
    assert status == 1
    assert "REGRESSED" in text
