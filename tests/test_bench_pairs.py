import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(values):
    return [{"metrics": {"run_s": {"value": v}, "rate": {"value": v}}} for v in values]


def test_summary_reads_medians_quartiles_and_wins_in_each_direction():
    metrics = [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "rate", "better": "higher", "bound": 0.1},
    ]
    parent = _runs([1.0, 2.0, 3.0, 4.0, 5.0])
    change = _runs([0.5, 2.5, 2.0, 4.0, 4.5])
    summary = bench_pairs.summarize(metrics, parent, change)
    run_s = summary["run_s"]
    assert run_s["parent_median"] == 3.0 and run_s["change_median"] == 2.5
    assert run_s["parent_quartiles"] == [2.0, 4.0] and run_s["parent_iqr"] == 2.0
    assert run_s["change_wins"] == 3  # pairs 0, 2 and 4; a tie is no win
    assert summary["rate"]["change_wins"] == 1  # pair 1
    assert (run_s["better"], run_s["bound"]) == ("lower", 0.25)

