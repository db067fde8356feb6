"""Fast checks of the benchmark harness itself, on tiny graphs (Z and F2, degree <= 4).

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
               "--seconds", "0.2", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _copy_checkout(target: Path, with_source: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "perfbench", target / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    if with_source:
        shutil.copytree(ROOT / "src", target / "src", ignore=ignore)
    return target


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_printed(trace, kind):
    proc = _bench(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == _declared(kind)


def test_corrupted_reference_fails_the_gate(tmp_path):
    checkout = _copy_checkout(tmp_path)
    reference_path = checkout / "perfbench" / "reference.json"
    reference = json.loads(reference_path.read_text())
    reference["conj-growth/F2/4"][3] = str(int(reference["conj-growth/F2/4"][3]) + 1)
    reference_path.write_text(json.dumps(reference))
    proc = _bench(checkout, "--trace", "0")
    assert proc.returncode == 1
    result = _result(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "conj-growth/F2/4: differs from the pinned reference" in proc.stderr


def test_independent_route_catches_a_consistent_wrong_pin():
    """A wrong value pinned consistently still fails its independent route."""
    jobs = workloads.WORKLOADS["smoke"]
    result = workloads.run_pass(jobs, workloads.setup("smoke", 0))
    reference = {job.key: workloads.encode(value) for job, value in zip(jobs, result.values)}
    assert workloads.Gate(reference).problems(jobs, result) == {}
    index = next(i for i, job in enumerate(jobs) if job.key == "conj-geo-incl-excl/F2")
    wrong = result.values[index] + workloads.rg.RationalFunction.make([0, 1])
    result.values[index] = wrong
    reference["conj-geo-incl-excl/F2"] = workloads.encode(wrong)
    problems = workloads.Gate(reference).problems(jobs, result)
    assert problems == {"conj-geo-incl-excl/F2":
                        ["differs from the independent route (conj-geo direct)"]}


def test_no_result_without_the_source_tree(tmp_path):
    checkout = _copy_checkout(tmp_path, with_source=False)
    proc = _bench(checkout, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _ordered_edges(name: str, seed: int) -> frozenset:
    return workloads.graph_in_order(name, workloads.vertex_order(name, seed)).edges


def test_seeds_permute_the_listing_but_keep_the_ordered_graph():
    for name, (_, labels, _) in workloads.GRAPHS.items():
        assert workloads.vertex_order(name, 0) == labels
        listings = {tuple(workloads.vertex_order(name, seed)) for seed in range(1, 40)}
        if len(labels) > 1:
            assert len(listings) > 1, name
        for seed in range(1, 40):
            assert _ordered_edges(name, seed) == _ordered_edges(name, 0), (name, seed)
    assert workloads.vertex_order("C6", 7) == workloads.vertex_order("C6", 7)


def test_self_time_is_duration_minus_children():
    layer_tracer = tracer.Tracer()

    def leaf():
        return sum(range(20000))

    def outer():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.002:
            pass
        return layer_tracer.call("leaf", leaf, (), {}) + layer_tracer.call("leaf", leaf, (), {})

    layer_tracer.call("outer", outer, (), {})
    assert layer_tracer.calls == {"outer": 1, "leaf": 2}
    covered = layer_tracer.self_s["outer"] + layer_tracer.total_s["leaf"]
    assert covered == pytest.approx(layer_tracer.total_s["outer"], abs=1e-9)
    assert layer_tracer.self_s["outer"] >= 0.002
    assert [span[2] for span in layer_tracer.spans] == ["outer"]  # leaves are under 1 ms


def test_tracing_restores_every_binding():
    import raaggrowth.automata as automata
    import raaggrowth.languages as languages
    import raaggrowth.series as series

    before = (automata.minimize, languages.minimize, series.PowerSeries.__mul__,
              series.RationalFunction.__dict__["make"], workloads.rg.spherical_conj_series)
    layer_tracer = tracer.Tracer()
    with tracer.installed(layer_tracer):
        assert languages.minimize is not before[1]
        workloads.rg.spherical_conj_series(workloads.setup("smoke", 0)["F2"], 4)
    after = (automata.minimize, languages.minimize, series.PowerSeries.__mul__,
             series.RationalFunction.__dict__["make"], workloads.rg.spherical_conj_series)
    assert after == before
    assert layer_tracer.calls["pipeline.spherical_conj_series"] == 1
    assert layer_tracer.counts["pipeline.spherical_conj_series.blocks"] >= 1
    assert layer_tracer.calls["automata.minimize"] >= 1
