"""The benchmark recorder's summary: quartiles, median change and pairs won."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _pairs(base, change, name):
    return [{"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
            for b, c in zip(base, change)]


def test_summary_counts_pairs_won_by_direction_and_ties_for_neither():
    specs = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    out = bench_record.summarize(_pairs([5.0, 5.2, 5.1, 4.0, 5.3], [4.0, 4.1, 5.1, 4.2, 3.9],
                                        "wall_s"), specs)["wall_s"]
    assert (out["pairs_won"], out["pairs"]) == (3, 5)    # one tie, one loss
    assert out["base"] == {"median": 5.1, "q1": 5.0, "q3": 5.2, "iqr": pytest.approx(0.2)}
    assert out["change"]["median"] == 4.1
    assert out["median_change"] == pytest.approx(4.1 / 5.1 - 1.0)

    specs = [{"name": "rollouts_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    out = bench_record.summarize(_pairs([2.0, 2.0], [2.5, 1.5], "rollouts_per_s"), specs)
    assert out["rollouts_per_s"]["pairs_won"] == 1


def test_single_pair_has_zero_spread():
    assert bench_record.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "iqr": 0.0}
