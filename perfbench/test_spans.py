"""Self-tests of the benchmark's tracer: self-time arithmetic, restoring the
wrapped attributes, and agreement between traced counts and the counts the
untraced passes derive from rollout results.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import signal
import sys
import time

import pytest

import gatesim
import gatesim.cli as cli
import gatesim.simulator as simulator
from bench import REFERENCE_S, SpeedSampler, pass_wall, rollout_durations, setup_time
from gatesim.policies import expert_policy
from gatesim.tracks import reference_track
from layers import SimStats, layer_metrics, timing_targets, trace_consistency, trace_targets
from spans import Tracer, self_times, summarize


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def add_span(tracer, name, start, end, parent):
    tracer.name_of.append(tracer.name_id(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    return len(tracer) - 1


def test_self_time_subtracts_children():
    t = Tracer()
    outer = add_span(t, "outer", 0.0, 10.0, -1)
    a = add_span(t, "child", 1.0, 3.0, outer)
    add_span(t, "grandchild", 1.5, 2.5, a)
    add_span(t, "child", 5.0, 6.0, outer)
    assert self_times(t) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_self_time_merges_overlaps_and_clips_to_parent():
    t = Tracer()
    outer = add_span(t, "outer", 0.0, 10.0, -1)
    add_span(t, "child", 1.0, 3.0, outer)
    add_span(t, "child", 2.0, 4.0, outer)    # overlaps the first child
    add_span(t, "child", 9.0, 12.0, outer)   # runs past the parent's end
    assert self_times(t)[0] == pytest.approx(10.0 - 3.0 - 1.0)


def test_wrapped_calls_record_nested_spans():
    t = Tracer(clock=FakeClock([0.0, 1.0, 4.0, 10.0]))

    def inner():
        return 1

    inner_traced = t.wrap("inner", inner)
    outer_traced = t.wrap("outer", lambda: inner_traced() + 1)
    assert outer_traced() == 2
    assert list(t.parent) == [-1, 0]
    summary = summarize(t)
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0}
    assert summary["inner"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}


def test_observer_runs_after_the_span_closes():
    t = Tracer(clock=FakeClock([0.0, 2.0]))
    seen = []
    traced = t.wrap("f", lambda x: x * 2,
                    observe=lambda tr, i, args, kwargs, res: seen.append((i, args, res)))
    assert traced(3) == 6
    assert seen == [(0, (3,), 6)]
    assert t.end[0] == 2.0


def snapshot():
    """Every attribute of every loaded gatesim module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gatesim" or name.startswith("gatesim.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = id(cvalue)
    return out


def test_tracer_restores_every_binding():
    before = snapshot()
    rollout = simulator.rollout
    with Tracer().installed(trace_targets(SimStats())):
        assert simulator.rollout is not rollout
        assert cli.rollout is simulator.rollout
        assert gatesim.rollout is simulator.rollout
    assert snapshot() == before


def test_tracer_restores_bindings_after_an_exception():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with Tracer().installed(trace_targets(SimStats())):
            raise RuntimeError("boom")
    assert snapshot() == before


def test_untraced_timers_restore_and_time_each_rollout():
    before = snapshot()
    sim = SimStats()
    tracer = Tracer()
    track = reference_track("uav-slalom")
    with tracer.installed(timing_targets(sim)):
        cli.rollout(expert_policy("uav"), track)
    assert snapshot() == before
    assert [tracer.span_name(i) for i in range(len(tracer))] == ["simulator.rollout"]
    assert tracer.end[0] > tracer.start[0]
    assert sim.counts["rollouts"] == 1


def test_times_are_scaled_to_the_reference_speed_then_medians():
    passes = [
        {"work_s": 4.0, "rollouts_s": [0.002, 0.006], "scale": 0.5},
        {"work_s": 2.2, "rollouts_s": [0.001, 0.004], "scale": 1.0},
        {"work_s": 1.0, "rollouts_s": [0.001, 0.001], "scale": 0.5},
    ]
    # scaled: walls 2.0, 2.2 and 0.5 s; rollouts (1, 3), (1, 4) and (0.5, 0.5) ms
    assert pass_wall(passes) == pytest.approx(2.0)
    assert rollout_durations(passes) == pytest.approx([1.0, 3.0])


def test_setup_time_is_the_median_scaled_set_up():
    setups = [{"seconds": 1.0, "scale": 1.0}, {"seconds": 1.8, "scale": 0.5},
              {"seconds": 0.7, "scale": 1.0}]
    assert setup_time(setups) == pytest.approx(0.9)


def test_sampler_counts_the_probe_time_inside_an_interval():
    sampler = SpeedSampler()
    sampler.start.extend([1.0, 2.0, 3.0])
    sampler.seconds.extend([0.01, 0.02, 0.04])
    assert sampler.within(1.5, 3.0) == pytest.approx(0.06)
    assert sampler.within(3.5, 9.0) == 0.0
    assert sampler.scale() == pytest.approx(REFERENCE_S * (100 + 50 + 25) / 3)


def test_sampler_probes_while_running_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    with sampler.running():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            cli.rollout(expert_policy("quad"), reference_track("quad-turn"))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.seconds) >= 1 and min(sampler.seconds) > 0.0


@pytest.mark.parametrize("track_name", ["uav-slalom", "quad-drift"])
def test_traced_counts_match_counts_derived_from_rollouts(track_name):
    track = reference_track(track_name)
    sim = SimStats()
    tracer = Tracer()
    with tracer.installed(trace_targets(sim)):
        cli.rollout(expert_policy(track.platform), track,
                    simulator.SimConfig(tick_hz=10.0))
    layers = layer_metrics(tracer, sim, {"files": 0, "bytes": 0})
    assert trace_consistency(layers, sim) == []
    assert layers["dynamics.step.calls"] > 0
    assert layers["simulator.rollout.calls"] == 1
