"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _library():
    return run.load_library()


def _benchmark_names(section: str) -> set[str]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7, 2)
    assert first == workloads.generate(workload, 7, 2)
    assert first != workloads.generate(workload, 8, 2)
    assert json.loads(json.dumps(first)) == first  # plain data only


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_repeat_earlier_inputs_exactly(workload):
    for specs in workloads.generate(workload, 3, 2):
        fresh = [{k: v for k, v in s.items() if k != "fresh"} for s in specs if s["fresh"]]
        for s in specs:
            if not s["fresh"]:
                assert {k: v for k, v in s.items() if k != "fresh"} in fresh


def _checked(spec, perturb):
    nc = _library()
    summary = workloads.summarize(spec, workloads.call(nc, spec["kind"], workloads.prepare(nc, spec)))
    assert checks.check(spec, summary) == []
    perturb(summary)
    return checks.check(spec, summary)


def test_checker_flags_wrong_count():
    spec = {"kind": "local", "coeffs": [1, 1, -1, 1, 2, 1, 1, 1, 3], "n": 40, "q": 35, "fresh": True}
    assert _checked(spec, lambda s: s.update(N=str(int(s["N"]) + 1)))


def test_checker_flags_wrong_series_term():
    spec = {"kind": "series", "coeffs": [1] * 9, "n": 25, "x": 60, "fresh": True}
    assert _checked(spec, lambda s: s["sample"].update({"5": s["sample"]["5"] * (1 + 1e-6)}))


def test_checker_flags_wrong_far_series_term():
    spec = {"kind": "series", "coeffs": [1, 1, -1, 1, 2, 1, 1, 1, 3], "n": 41, "x": 1000, "fresh": True}
    far = workloads.far_sample(spec)
    assert len(far) == 2 and max(far) > 500
    for q in far:
        assert _checked(spec, lambda s, q=str(q): s["far"].update({q: s["far"][q] * (1 + 1e-6)}))


def test_checker_flags_series_value_not_sum_of_terms():
    spec = {"kind": "series", "coeffs": [1] * 9, "n": 25, "x": 60, "fresh": True}
    assert _checked(spec, lambda s: s.update(value=s["value"] + 1e-6))


def test_checker_flags_wrong_main_term():
    spec = dict(workloads.WARMUP[3], fresh=True)
    assert _checked(spec, lambda s: s.update(main_term=s["main_term"] * (1 + 1e-4)))


def test_checker_flags_wrong_weighted_count():
    spec = dict(workloads.WARMUP[3], fresh=True)
    assert _checked(spec, lambda s: s.update(r_fourier=s["r_fourier"] * 1.001))


def test_checker_flags_non_minimal_solution():
    spec = {"kind": "planted", "coeffs": [1] * 8 + [3], "n": 8 * 23**3 + 3 * 29**3, "bound": 32,
            "fresh": True}
    assert _checked(spec, lambda s: s.update(primes=list(reversed(s["primes"]))))


def test_checker_flags_reference_mismatch():
    assert checks.against_reference({"N": "5", "A": 0.5}, {"N": "6", "A": 0.5})
    assert checks.against_reference({"A": 0.5 + 1e-6}, {"A": 0.5})
    assert not checks.against_reference({"A": 0.5 + 1e-13, "r_direct": 1.0 + 1e-7},
                                        {"A": 0.5, "r_direct": 1.0})


def test_metric_names_match_benchmark_json():
    ops = [{"scaled": 0.01 * (i + 1), "fresh": i % 2 == 0} for i in range(30)]
    e2e = run.end_to_end_metrics({"ops": ops}, [0.5, 0.4])
    assert set(e2e) == _benchmark_names("end_to_end")
    assert set(run.per_layer_metrics(spans.Tracer(), 0.1, {})) == _benchmark_names("per_layer")


def test_tail_keeps_ten_samples_above():
    values = list(range(1, 101))
    value, p = run.tail(values)
    assert (value, p) == (90, 90)
    assert sum(v > value for v in values) == 10


def test_tracer_nests_spans_and_splits_self_time():
    nc = _library()
    tracer = spans.Tracer()
    tracer.install(nc)
    try:
        system = nc.localdata.CoefficientSystem.make([1] * 9, 25)
        nc.singular.singular_series_partial(system, 40)
    finally:
        tracer.uninstall()
        tracer.end()
    dump = tracer.dump()
    by_id = {row[0]: dict(zip(dump["columns"], row)) for row in dump["rows"]}
    names = {s["name"] for s in by_id.values()}
    assert {"singular.singular_series_partial", "singular.singular_series_euler",
            "localdata.series_term", "localdata.euler_factor"} <= names
    for s in by_id.values():
        if s["parent"] >= 0:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    times = tracer.times({-1: 1.0})
    for name in names:
        busy, self_s = times[name]
        assert 0 <= self_s <= busy + 1e-9
    doubled = tracer.times({-1: 2.0})
    assert doubled["singular.singular_series_partial"][0] == pytest.approx(
        2 * times["singular.singular_series_partial"][0])
    assert tracer.calls["singular.singular_series_partial"] == 1
    assert nc.singular.series_term is nc.localdata.series_term  # originals restored
    assert hasattr(nc.localdata.series_term, "cache_info")
