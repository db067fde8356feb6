"""Workloads of the raaggrowth benchmark: graphs, seeded vertex orders, jobs, checks.

A job is one call to a public endpoint of ``raaggrowth``.  A workload is a
fixed list of jobs; one *pass* runs every job once, back to back, in this
process.

The seed relabels every graph by a random automorphism: it permutes the vertex
listing, and so the letter order, but keeps the ordered graph (which pairs of
listing positions are adjacent).  Seed 0 keeps the listed order.  Cost depends
on the ordered graph: P5's conjugacy growth takes 1.8 s to 6.3 s over its
order classes, the listed order being the slowest.  An arbitrary permutation
per seed would make a run's wall time spread by 15 to 25 per cent across seeds,
so every seed times the listed order class; ``test_seed_invariance.py`` checks
that arbitrary orders give the same outputs.

Outputs are checked after each pass, outside the timed region, against the
pinned values in ``reference.json`` and, where one exists, against an
independent route (see ``Gate.independent_value``).

The package under test is imported as ``raaggrowth``; the caller puts its
source directory on ``sys.path`` first.  Endpoints are looked up on the package
at call time, so the tracer's rebinding of package names takes effect.
"""

from __future__ import annotations

import json
import random
import time
import traceback
from dataclasses import dataclass
from math import comb
from pathlib import Path

import raaggrowth as rg

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _labels(n: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(n)]


def _path(n: int):
    labels = _labels(n)
    return labels, [[labels[i], labels[i + 1]] for i in range(n - 1)]


def _cycle(n: int):
    labels, edges = _path(n)
    return labels, edges + [[labels[-1], labels[0]]]


def _complete(n: int):
    labels = _labels(n)
    return labels, [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n)]


# name -> (family, vertex labels in listed order, edges as label pairs)
GRAPHS = {
    "Z1": ("complete", *_complete(1)),
    "F2": ("edgeless", _labels(2), []),
    "F3": ("edgeless", _labels(3), []),
    "Z8": ("complete", *_complete(8)),
    "P4": ("path", *_path(4)),
    "P5": ("path", *_path(5)),
    "P6": ("path", *_path(6)),
    "C4": ("cycle", *_cycle(4)),
    "C5": ("cycle", *_cycle(5)),
    "C6": ("cycle", *_cycle(6)),
}


# endpoint -> call; graph endpoints take a SimpleGraph first, "part1" a family name
ENDPOINTS = {
    "conj-growth": lambda g, degree: rg.spherical_conj_series(g, degree).sigma_tilde,
    "std": lambda g: rg.spherical_growth_series(g),
    "geo": lambda g: rg.geodesic_series(g),
    "conj-geo-direct": lambda g: rg.conj_geodesic_series(g, "direct"),
    "conj-geo-incl-excl": lambda g: rg.conj_geodesic_series(g, "incl-excl"),
    "part1": lambda family, degree: rg.part1_crosscheck(family, degree),
    # the CLI ``oracle`` subcommand: class counts, then element counts
    "oracle": lambda g, length: (rg.enumerate_classes(g, length), rg.element_counts(g, length)),
}


@dataclass(frozen=True)
class Job:
    endpoint: str
    target: str  # a key of GRAPHS, or a closed-form family for "part1"
    param: int | None = None  # truncation degree or oracle length

    @property
    def key(self) -> str:
        parts = [self.endpoint, self.target]
        if self.param is not None:
            parts.append(str(self.param))
        return "/".join(parts)

    @property
    def on_graph(self) -> bool:
        return self.endpoint != "part1"

    def run(self, graphs: dict):
        subject = graphs[self.target] if self.on_graph else self.target
        args = (subject,) if self.param is None else (subject, self.param)
        return ENDPOINTS[self.endpoint](*args)


WORKLOADS = {
    "conj-growth-d20": [Job("conj-growth", g, 20) for g in ("P4", "P5", "C5")],
    "rational-endpoints": [
        Job(endpoint, g)
        for g in ("P5", "C5", "P6", "C6")
        for endpoint in ("std", "geo", "conj-geo-direct", "conj-geo-incl-excl")
    ],
    "high-degree-series": [
        Job("conj-growth", "Z8", 200),
        Job("conj-growth", "F3", 300),
        Job("part1", "free-3", 300),
    ],
    "oracle-enum": [Job("oracle", "F2", 7), Job("oracle", "P4", 5), Job("oracle", "C4", 5)],
    # tiny graphs for the harness's own tests; not listed in BENCHMARK.json
    "smoke": [
        Job("conj-growth", "Z1", 4),
        Job("conj-growth", "F2", 4),
        Job("part1", "free-2", 4),
        Job("std", "F2"),
        Job("conj-geo-direct", "F2"),
        Job("conj-geo-incl-excl", "F2"),
        Job("oracle", "F2", 4),
    ],
}


# ---------------------------------------------------------------------------
# set-up: seeded vertex listings
# ---------------------------------------------------------------------------

def _automorphism(family: str, n: int, rng: random.Random) -> list[int]:
    """A random automorphism of the family's graph on vertices 0..n-1."""
    if family in ("complete", "edgeless"):
        return rng.sample(range(n), n)
    if family == "path":
        return list(range(n))[:: rng.choice((1, -1))]
    shift = rng.randrange(n)  # cycle: a rotation, then maybe a reflection
    rotated = [(i + shift) % n for i in range(n)]
    return rotated[:: rng.choice((1, -1))]


def vertex_order(graph: str, seed: int) -> list[str]:
    """Vertex listing of ``graph`` for ``seed``; seed 0 keeps the listed order."""
    family, labels, _ = GRAPHS[graph]
    if not seed:
        return list(labels)
    rng = random.Random(f"{seed}/{graph}")
    return [labels[v] for v in _automorphism(family, len(labels), rng)]


def graph_in_order(graph: str, vertices: list[str]):
    """Parse ``graph`` with the given vertex listing, as the command line reads it."""
    doc = {"vertices": vertices, "edges": GRAPHS[graph][2]}
    return rg.parse_graph(json.dumps(doc))


def setup(workload: str, seed: int) -> dict:
    """``{graph name: SimpleGraph}`` for every graph of ``workload``, in the seed's listing."""
    names = sorted({job.target for job in WORKLOADS[workload] if job.on_graph})
    return {name: graph_in_order(name, vertex_order(name, seed)) for name in names}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

REFERENCE_LOOP_ITERATIONS = 60_000


def reference_loop_s() -> float:
    """Seconds a fixed pure-Python computation takes: the host's current speed.

    On a shared host the speed of one core drifts by tens of per cent between
    minutes.  Times divided by the median of this loop's times, taken before
    the first job and after each job of every pass, cancel most of that drift.
    """
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_LOOP_ITERATIONS):
        key = i % 997
        table[key] = table.get(key, 0) + i * i
    sorted(table.values())
    return time.perf_counter() - start


@dataclass
class PassResult:
    job_s: list[float]
    ref_s: list[float]  # reference loop before the first job and after each job
    values: list  # raw endpoint results; None where the job raised
    errors: dict  # job key -> formatted traceback

    @property
    def wall_s(self) -> float:
        return sum(self.job_s)


def run_pass(jobs: list[Job], graphs: dict) -> PassResult:
    """Run every job once; times cover the calls only, not any checking."""
    values, job_s, errors = [], [], {}
    ref_s = [reference_loop_s()]
    for job in jobs:
        start = time.perf_counter()
        try:
            value = job.run(graphs)
        except Exception:  # a failing job is counted, the pass goes on
            value = None
            errors[job.key] = traceback.format_exc()
        job_s.append(time.perf_counter() - start)
        values.append(value)
        ref_s.append(reference_loop_s())
    return PassResult(job_s, ref_s, values, errors)


def encode(value):
    """Exact, order-free JSON form of an endpoint result."""
    if isinstance(value, rg.PowerSeries):
        return value.to_strings()
    if isinstance(value, rg.RationalFunction):
        return value.to_json_dict()
    classes, elements = value
    return {"classes": [str(c) for c in classes], "elements": [str(c) for c in elements]}


# ---------------------------------------------------------------------------
# exact-output gate
# ---------------------------------------------------------------------------

def _free_abelian_series(rank: int, degree: int) -> list[str]:
    """Coefficients of ((1+z)/(1-z))^rank, from binomials alone."""
    return [
        str(sum(comb(rank, i) * comb(n - i + rank - 1, rank - 1) for i in range(min(n, rank) + 1)))
        for n in range(degree + 1)
    ]


class Gate:
    """Checks pass outputs against pinned values and independent routes.

    Independent values that need the library (closed forms, standard growth)
    are computed once, on demand, outside the timed region.
    """

    def __init__(self, reference: dict):
        self.reference = reference
        self._derived = {}

    def _derive(self, key: str, compute):
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    def independent_value(self, job: Job, outputs: dict):
        """(route, expected encoded value) for ``job``, or None if it has none."""
        if job.endpoint == "conj-geo-incl-excl":
            direct = f"conj-geo-direct/{job.target}"
            if direct in outputs:
                return "conj-geo direct", outputs[direct]
        if job.endpoint == "conj-growth":
            graph, degree = job.target, job.param
            if graph.startswith("Z") and graph[1:].isdigit():
                return "((1+z)/(1-z))^n", _free_abelian_series(int(graph[1:]), degree)
            if graph.startswith("F") and f"part1/free-{graph[1:]}/{degree}" in outputs:
                return "part1 free", outputs[f"part1/free-{graph[1:]}/{degree}"]
            if graph == "P4":
                return "part1 path4", self._derive(
                    f"path4/{degree}", lambda: rg.part1_crosscheck("path4", degree).to_strings())
        if job.endpoint == "oracle":
            listed = GRAPHS[job.target][1]
            std = self._derive(f"std/{job.target}/{job.param}", lambda: rg.spherical_growth_series(
                graph_in_order(job.target, listed)).expand(job.param).to_strings())
            return "std growth expansion", {**outputs[job.key], "elements": std}
        return None

    def problems(self, jobs: list[Job], result: PassResult) -> dict:
        """Job key -> list of reasons it failed; jobs that passed are absent."""
        outputs = {
            job.key: encode(value)
            for job, value in zip(jobs, result.values)
            if job.key not in result.errors
        }
        found = {key: ["raised:\n" + text] for key, text in result.errors.items()}
        for job in jobs:
            if job.key not in outputs:
                continue
            reasons = []
            if outputs[job.key] != self.reference.get(job.key):
                reasons.append("differs from the pinned reference")
            other = self.independent_value(job, outputs)
            if other is not None and outputs[job.key] != other[1]:
                reasons.append(f"differs from the independent route ({other[0]})")
            if reasons:
                found[job.key] = reasons
        return found
