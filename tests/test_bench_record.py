"""The benchmark recorder's summaries: quartiles, median change, pairs won
and per-pair ratios, and the median layer block of the traced runs."""

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


def test_summary_has_each_pairs_ratio_and_their_quartiles():
    # the parent's own spread (4.0 to 6.0) holds the seeds' differences; the
    # ratio within each pair does not
    specs = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    out = bench_record.summarize(_pairs([4.0, 5.0, 6.0, 4.5, 5.5], [3.6, 4.6, 5.7, 4.0, 5.0],
                                        "wall_s"), specs)["wall_s"]
    want = [0.9, 0.92, 0.95, 4.0 / 4.5, 5.0 / 5.5]
    assert out["pair_ratios"] == pytest.approx(want)
    assert out["pair_ratio"] == pytest.approx({"median": 5.0 / 5.5, "q1": 0.9, "q3": 0.92,
                                               "iqr": 0.02})
    assert out["base"]["iqr"] == pytest.approx(1.0)


def test_single_pair_has_zero_spread():
    assert bench_record.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "iqr": 0.0}


def _traced(wall, steps_us, steps):
    return {"correct": True, "metrics": {"wall_s": wall, "dynamics.step.us_per_call": steps_us,
                                         "dynamics.step.calls": steps},
            "simulated": {"dynamics_steps": steps, "rollouts": 3}}


def test_traced_block_is_the_per_metric_median_of_the_runs():
    block = bench_record.traced_median([_traced(2.0, 9.0, 100), _traced(1.0, 7.0, 100),
                                        _traced(3.0, 8.5, 100)])
    assert block["metrics"] == {"wall_s": 2.0, "dynamics.step.us_per_call": 8.5,
                                "dynamics.step.calls": 100}
    assert block["self_shares"] == {}
    assert block["simulated"] == {"dynamics_steps": 100, "rollouts": 3}
    assert (block["runs"], block["correct"]) == (3, True)


def _layers(scale, mask_s, render_s, calls):
    metrics = {"render.gate_mask.self_s": mask_s * scale,
               "render.render_scene.self_s": render_s * scale,
               "dynamics.step.self_s": 1.0 * scale, "render.gate_mask.calls": calls,
               "render.gate_mask.ms_per_call": mask_s * scale / calls * 1e3}
    return {"correct": True, "metrics": metrics, "simulated": {"frames": calls}}


def test_traced_block_has_the_median_self_time_share_of_each_layer():
    # the second run is 30% slower throughout, as host drift makes it:
    # its times move, its shares do not
    runs = [_layers(1.0, 2.0, 1.0, 1000), _layers(1.3, 2.0, 1.0, 1000),
            _layers(1.0, 1.0, 2.0, 1000)]
    block = bench_record.traced_median(runs)
    assert block["self_shares"] == {"render.gate_mask.self_s": 0.5,
                                    "render.render_scene.self_s": 0.25,
                                    "dynamics.step.self_s": 0.25}
    assert block["metrics"]["render.gate_mask.self_s"] == 2.0
    assert bench_record.self_shares(runs[1]["metrics"]) == pytest.approx(
        {"render.gate_mask.self_s": 0.5, "render.render_scene.self_s": 0.25,
         "dynamics.step.self_s": 0.25})


def test_traced_runs_of_one_commit_must_agree_on_their_counts():
    with pytest.raises(RuntimeError, match="disagree on their simulated counts"):
        bench_record.traced_median([_traced(2.0, 9.0, 100), _traced(2.0, 9.0, 101)])
