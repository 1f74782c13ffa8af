"""Tests of the benchmark itself:  python3 -m pytest perfbench

The smoke runs keep the first request of each class, so every correctness
check runs once per workload in well under a minute.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import mixes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def first_of_each_kind(requests):
    seen, out = set(), []
    for req in requests:
        if req.kind not in seen:
            seen.add(req.kind)
            out.append(req)
    return out


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the request set to one request per class and record every
    check run."""
    build = mixes.build_requests
    checked = []
    check = checks.check
    monkeypatch.setattr(mixes, "build_requests",
                        lambda *a, **k: first_of_each_kind(build(*a, **k)))
    monkeypatch.setattr(checks, "check", lambda req: checked.append(req.kind) or check(req))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return checked


def run_main(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0.001",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_smoke_emits_every_metric_and_runs_every_check(workload, tiny, capsys):
    kinds = {req.kind for req in mixes.build_requests(workload, 7, run.OUT / "kinds")}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        tiny.clear()
        result = run_main(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(kinds)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert sorted(tiny) == sorted(kinds)
    shutil.rmtree(run.OUT / "kinds")


def test_workloads_cover_every_check():
    kinds = set()
    for workload in mixes.WORKLOADS:
        kinds |= {r.kind for r in mixes.build_requests(workload, 7, run.OUT / "cover")}
    shutil.rmtree(run.OUT / "cover")
    assert set(checks._CHECKS) <= kinds
    assert {"john-linf", "john-l1", "john-polytope", "john-l3"} <= kinds
    assert {"gap-linf", "gap-l3", "gap-ellipsoid", "gap-polytope", "gap-l2"} <= kinds


def test_same_seed_same_inputs(tmp_path):
    a = mixes.build_requests("normed", 3, tmp_path / "a")
    b = mixes.build_requests("normed", 3, tmp_path / "b")
    c = mixes.build_requests("normed", 4, tmp_path / "c")

    def inputs(name):
        return [p.read_bytes() for p in sorted((tmp_path / name).glob("*.json"))]

    assert [r.name for r in a] == [r.name for r in b]
    assert [r.cls for r in a] == [r.cls for r in c]
    assert inputs("a") == inputs("b")
    assert inputs("a") != inputs("c")


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    from nsgap import cli

    requests = [r for w in ("expander", "normed", "finite")
                for r in first_of_each_kind(mixes.build_requests(w, 5, tmp_path / w))
                if not r.name.endswith("m5-n5")]
    before = []
    for req in requests:
        assert cli.run(list(req.argv)) == 0
        before.append(req.out.read_bytes())
    tracer = spans.Tracer()
    tracer.install()
    try:
        for req in requests:
            tracer.request = req.name
            assert cli.run(list(req.argv)) == 0
    finally:
        tracer.uninstall()
    assert [req.out.read_bytes() for req in requests] == before
    assert {s.request for s in tracer.spans} == {r.name for r in requests}


def test_every_binding_of_a_target_is_wrapped(monkeypatch):
    import nsgap
    from nsgap import embed, expander, markov, rayleigh

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert tracer.unwrapped_bindings() == []
        for mod in (nsgap, markov, rayleigh, embed, expander):
            assert mod.spectral_data.__wrapped__ is tracer.originals["markov.spectral_data"]
        # a binding made behind the tracer's back is reported
        monkeypatch.setattr(rayleigh, "_late_alias",
                            tracer.originals["markov.spectral_data"], raising=False)
        assert tracer.unwrapped_bindings() == [
            "nsgap.rayleigh._late_alias -> markov.spectral_data"]
    finally:
        tracer.uninstall()
    assert markov.spectral_data is tracer.originals["markov.spectral_data"]


def test_spans_nest_and_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans.extend([
        spans.Span("cli.run", 0.0, 10.0, None, "r"),
        spans.Span("markov.spectral_data", 1.0, 4.0, 0, "r"),
        spans.Span("markov.spectral_data", 2.0, 3.0, 1, "r"),
    ])
    tracer.originals = {"cli.run": None, "markov.spectral_data": None}
    m = tracer.layer_metrics()
    assert m["cli.run.self_s"] == 7.0
    assert m["markov.spectral_data.calls"] == 2
    assert m["markov.spectral_data.busy_s"] == 3.0
    assert m["markov.spectral_data.self_s"] == 3.0


def test_tail_has_ten_samples_beyond():
    value, percentile, count = run.tail([float(i) for i in range(100)])
    assert (value, percentile, count) == (89.0, 90.0, 100)


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "expander", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rounds_keep_each_request_largest_time_and_first_error(monkeypatch):
    clock = itertools.count()
    monkeypatch.setattr(run, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    times = iter([3.0, 5.0, 2.0, 1.0])

    def fake_request(cli, req):
        return {"seconds": next(times), "wall_s": 0.5,
                "error": "exit code 3" if req == "b" else None}

    monkeypatch.setattr(run, "run_request", fake_request)
    # the clock reads 1 before the 4th request and 2 before the 5th, so round 1
    # is cut after its first request
    done = run.timed_rounds(None, ["a", "b", "c"], 1.5)
    assert [rec["cpu"] for rec in done] == [[3.0, 1.0], [5.0], [2.0]]
    assert [rec["seconds"] for rec in done] == [3.0, 5.0, 2.0]
    assert [rec["error"] for rec in done] == [None, "exit code 3", None]


def test_weave_spreads_every_group_over_the_order():
    order = mixes._weave(["a"] * 4, ["b"] * 2, ["c"])
    assert order == ["a", "b", "a", "c", "a", "b", "a"]
