"""Self-test of the benchmark harness (no thmc work is run).

    python3 perfbench/test_harness.py        # or: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from speed import NOMINAL_CHUNK_S, SpeedProbe  # noqa: E402
from workloads import known_self_loop  # noqa: E402
from spans import (  # noqa: E402
    Tracer,
    covered,
    median,
    percentile,
    samples_beyond,
    valid_metric_name,
    valid_unit,
)


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_children_once():
    # pass [0, 10] > a [1, 4] > b [2, 3];  pass > c [5, 6]
    t = Tracer(clock=scripted_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = t.open("pass")
    a = t.open("a")
    b = t.open("b")
    t.close(b)
    t.close(a)
    c = t.open("c")
    t.close(c)
    t.close(root)
    assert t.self_times() == [6, 2, 1, 1]
    assert [t.root[s] for s in range(4)] == [root] * 4
    assert t.parent[b] == a and t.parent[c] == root


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered([], 0, 10) == 0


def test_failed_span_is_closed_and_flagged():
    t = Tracer(clock=scripted_clock([0, 1, 2, 3]))
    root = t.open("pass")

    def boom():
        raise ValueError("x")

    traced = t.wrap("boom", boom)
    try:
        traced()
    except ValueError:
        pass
    t.close(root)
    assert list(t.failed) == [0, 1] and t.self_times() == [2, 1]


def test_counters_go_to_the_open_pass():
    t = Tracer(clock=scripted_clock(range(100)))
    for _ in range(2):
        root = t.open("pass")
        t.wrap("f", lambda n: n, lambda tr, args, r: tr.count("items", r))(3)
        t.close(root)
    assert t.counters == {0: {"items": 3}, 2: {"items": 3}}


def test_percentiles_and_sample_counts():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 98) == 98
    assert samples_beyond(100, 98) == 2
    assert samples_beyond(500, 98) == 10
    assert percentile([], 98) == 0.0 and samples_beyond(0, 98) == 0
    assert percentile([7.0], 98) == 7.0
    assert median([3, 1, 2]) == 2 and median([4, 1, 2, 3]) == 2.5


def test_reference_seconds_rescale():
    probe = SpeedProbe()
    probe.samples = [2 * NOMINAL_CHUNK_S] * 3  # host at half the reference speed
    assert probe.factor == 0.5
    assert probe.rescale(10.0, 0.2) == 4.9


def test_probe_samples_inside_a_region():
    with SpeedProbe(interval=0.01) as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 4 and 0 < probe.spent < 0.1


def test_probe_spans_only_between_tracer_updates():
    t = Tracer()
    probe = SpeedProbe(tracer=t)
    root = t.open("pass")
    t.busy = True  # as if the signal arrived inside open() or close()
    probe._tick(None, None)
    t.busy = False
    probe._tick(None, None)
    t.close(root)
    assert [t.span_name(s) for s in range(len(t))] == ["pass", "probe"]
    assert t.parent[1] == root and len(probe.samples) == 2


def test_known_self_loop_is_judged_from_the_failing_call():
    def _append_two_loop(w, i, j):
        raise ValueError(f"self-loop {w[-1]}->{w[-1]} in word")

    def caught(*args):
        try:
            _append_two_loop(*args)
        except ValueError as exc:
            return exc

    assert known_self_loop(caught([3, 1, 3], 1, 2))  # cycle avoiding {1, 2}
    assert not known_self_loop(caught([1, 2, 1], 1, 2))
    assert not known_self_loop(ValueError("self-loop 1->1"))  # raised elsewhere
    assert not known_self_loop(AssertionError("self-loop"))


def test_metric_names_and_units():
    assert valid_metric_name("exactla.lp_p98_ms")
    assert valid_metric_name("wall_s")
    for bad in ("", ".lead", "a b", "x" * 65, "p/s"):
        assert not valid_metric_name(bad), bad
    assert valid_unit("1/s") and valid_unit("%") and not valid_unit("per second")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E
    assert layers == {name: unit for name, unit, _, _ in run.LAYERS}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert valid_metric_name(m["name"]) and valid_unit(m["unit"]), m
    better = {name: b for name, _, b, _ in run.LAYERS}
    assert all(m["better"] == better[m["name"]] for m in spec["per_layer"])


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
