"""Relabeling never changes an output: seed 0 (listed order) against arbitrary orders.

The benchmark's seeds only relabel by automorphisms, so this check uses
arbitrary permutations of each listing instead, on every workload (about a
minute).  Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_seed_invariance.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

BENCHMARKED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _arbitrary_orders(name: str, seed: int) -> dict:
    graphs = {}
    for graph, listed in workloads.setup(name, 0).items():
        vertices = list(listed.vertices)
        random.Random(f"{seed}/{graph}").shuffle(vertices)
        graphs[graph] = workloads.graph_in_order(graph, vertices)
    return graphs


@pytest.mark.parametrize("name", BENCHMARKED)
def test_seed_zero_and_an_arbitrary_order_agree(name):
    jobs = workloads.WORKLOADS[name]
    outputs = []
    for graphs in (workloads.setup(name, 0), _arbitrary_orders(name, 1)):
        result = workloads.run_pass(jobs, graphs)
        assert result.errors == {}
        outputs.append([workloads.encode(value) for value in result.values])
    assert outputs[0] == outputs[1]
