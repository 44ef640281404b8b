"""The benchmark's own tests: its output schema and metric names, its
verifiers, its failure accounting and its self-time arithmetic.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""
import json
import re
from fractions import Fraction

import pytest

from perfbench import calibrate, metrics, run, trace, verify
from perfbench.workloads import WORKLOADS, answer

from toricres import cech, resultant
from toricres.toric import support_problem

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))


@pytest.fixture(scope="module")
def bench():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def squares_cheap():
    """The squares resultant at a twist where it takes well under a second."""
    problem = support_problem((SQUARE,) * 3)
    return problem, resultant.a_resultant(problem, twist=(-1, 2))


# -- schema ---------------------------------------------------------------------------

def test_benchmark_json_follows_the_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"][:2] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert len(w["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_benchmark_json_matches_the_harness(bench):
    for w in bench["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert bench["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.per_layer_names()]


def test_result_line_has_the_contract_keys():
    records = [{"phase": "cold", "ok": True, "work_s": 2.0, "cache_mb": 0.5,
                "peak_rss_mb": 30.0},
               {"phase": "warm", "ok": True, "work_s": 1.0, "peak_rss_mb": 29.0}]
    line = run.result_line(records, run.end_to_end(records), False, [])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and (line["attempted"], line["failed"]) == (2, 0)
    assert list(line["metrics"]) == [m.name for m in metrics.END_TO_END]
    assert line["metrics"]["setup_s"] == {"value": 2.0, "unit": "s"}
    assert line["metrics"]["solve_s"] == {"value": 1.0, "unit": "s"}


def test_traced_layers_are_the_named_per_layer_metrics(squares_cheap):
    problem, _ = squares_cheap
    rec = trace.Recorder()
    restore = trace.install(rec)
    try:
        out = resultant.a_resultant(problem, twist=(-1, 2))
    finally:
        restore()
    layers = trace.layer_metrics(rec, [out], dict(cech.cache_counters))
    assert set(layers) == {m.name for m in metrics.PER_LAYER}
    assert resultant.a_resultant.__name__ == "a_resultant"
    assert not hasattr(resultant.a_resultant, "__wrapped__")
    # self times partition the one root span
    (root,) = [s for s in rec.spans if s[3] == -1]
    total = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert total == pytest.approx(root[2] - root[1])
    assert layers["qpoly.det_calls"] >= 1 and layers["weyman.rank_sum"] > 0


# -- verifiers and failure accounting ---------------------------------------------------

def _perturbed(p):
    mono = next(iter(p))
    return {**p, mono: p[mono] + 1}


def _printed_answer(text, **extra):
    return {"delta": verify.parse_poly(text), "root": verify.parse_poly(text),
            "multiplicity": 1, **extra}


def test_sturmfels_check_accepts_the_printed_answer_and_rejects_a_perturbed_one():
    unit = _printed_answer(verify.STURMFELS_ELIMINANT, term_ranks={-1: 15, 0: 15},
                           e1=verify.e1_table(verify.STURMFELS_E1_UNIT))
    stable = _printed_answer(verify.STURMFELS_ELIMINANT,
                             term_ranks={0: 23, -1: 27, -2: 4}, e1={})
    negated = {m: -c for m, c in unit["delta"].items()}
    assert verify.check_sturmfels([{**unit, "delta": negated}, stable]) == []
    bad = verify.check_sturmfels([unit, {**stable, "delta": _perturbed(stable["delta"])}])
    assert bad and "stable delta" in bad[0]
    assert verify.check_sturmfels([{**unit, "term_ranks": {-1: 15}}, stable])


def test_m33_check_rejects_a_perturbed_root_and_a_wrong_multiplicity():
    good = _printed_answer(verify.M33_ELIMINANT, e1=verify.e1_table(verify.M33_E1))
    good["multiplicity"] = 14
    assert verify.check_m33([good]) == []
    assert verify.check_m33([{**good, "root": _perturbed(good["root"])}])
    assert verify.check_m33([{**good, "multiplicity": 7}])


def test_squares_check_accepts_the_resultant_and_rejects_a_perturbed_one(squares_cheap):
    problem, out = squares_cheap
    check = WORKLOADS["squares-default"].check
    a = answer(out)
    assert check([a], problem, 1) == []
    assert check([a], problem, 2) == []
    bad = check([{**a, "delta": _perturbed(a["delta"])}], problem, 1)
    assert "incidence point" in " ".join(bad)
    # right multidegree, but positive everywhere: a product of sums of squares
    wrong: dict = {(): Fraction(1)}
    for labs in problem.labels:
        wrong = {tuple(sorted(m + ((lab, 2),))): c for m, c in wrong.items()
                 for lab in labs}
    assert "incidence point" in " ".join(check([{**a, "delta": wrong}], problem, 1))
    assert check([{**a, "delta": {}}], problem, 1) == ["delta is zero"]


def test_a_failed_check_counts_and_its_timing_is_dropped():
    records = [
        {"phase": "cold", "ok": True, "work_s": 5.0, "cache_mb": 1.0,
         "peak_rss_mb": 40.0},
        {"phase": "warm", "ok": False, "work_s": 0.1, "peak_rss_mb": 10.0,
         "problems": ["root differs from the printed eliminant"]},
        {"phase": "warm", "ok": True, "work_s": 3.0, "peak_rss_mb": 35.0},
    ]
    values = run.end_to_end(records)
    assert values["solve_s"] == 3.0 and values["peak_rss_mb"] == 35.0
    line = run.result_line(records, values, False, [])
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 1)
    with pytest.raises(ValueError):
        run.end_to_end(records[:2])


def test_a_stray_write_fails_the_run():
    records = [{"phase": "cold", "ok": True, "work_s": 1.0, "cache_mb": 0.1,
                "peak_rss_mb": 1.0},
               {"phase": "warm", "ok": True, "work_s": 1.0, "peak_rss_mb": 1.0}]
    line = run.result_line(records, run.end_to_end(records), False, ["x.json"])
    assert line["correct"] is False


# -- speedometer -----------------------------------------------------------------------

def test_speedometer_scales_wall_time_less_samples_by_mean_speed():
    meter = calibrate.Speedometer()
    meter.samples = [calibrate.NOMINAL_S, 2 * calibrate.NOMINAL_S]
    meter.wall_s = 1.0
    # half the samples ran at nominal speed, half at half of it
    assert meter.speed() == pytest.approx(0.75)
    assert meter.work_s() == pytest.approx((1.0 - 3 * calibrate.NOMINAL_S) * 0.75)


def test_speedometer_samples_while_running_and_restores_the_handler():
    import signal
    old = signal.getsignal(signal.SIGALRM)
    meter = calibrate.Speedometer(interval=0.01)
    meter.start()
    sum(i * i for i in range(2_000_000))
    meter.stop()
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 2 and meter.wall_s > sum(meter.samples)
    assert meter.work_s() > 0


# -- self time -------------------------------------------------------------------------

def test_self_times_on_a_synthetic_span_tree():
    #  root 0..10 ── a 1..4 ── a1 2..3
    #           └── b 5..9 ── b1 5..6, b2 7..9
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b1", 5.0, 6.0, 3],
        ["b2", 7.0, 9.0, 3],
    ]
    assert trace.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    assert sum(trace.self_times(spans)) == 10.0


def test_memo_hits_leave_no_span():
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def f(n):
        return n * 2

    rec = trace.Recorder()
    g = rec.wrap_misses("f", f)
    assert [g(1), g(1), g(2)] == [2, 2, 4]
    assert [s[0] for s in rec.spans] == ["f", "f"]
