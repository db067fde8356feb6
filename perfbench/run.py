"""Benchmark of the raaggrowth endpoints on a fixed graph ladder.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload conj-growth-d20 --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: the workload's jobs run back to back,
pass after pass, until ``--seconds`` have elapsed (at least ``MIN_PASSES``
passes).  Every pass is checked exactly, outside its timed region.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": <jobs run>, "failed": <jobs failed>, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: process start to ready (import, graph parsing, seeded vertex
  orders), median over ``SETUP_PROBES`` fresh processes;
* ``wall_ref``: median time of one pass (the sum of its job times), in units
  of the median time of a fixed pure-Python reference loop timed between the
  jobs of every pass (``workloads.reference_loop_s``);
* ``slowest_job_ref``: median over passes of the pass's longest job, in the
  same units;
* ``peak_rss_mb``: peak resident set of this process.

With ``--trace 1`` every pass is a pair, one untraced and one traced, and the
run prints the per-layer metrics of ``tracer.LAYER_METRICS`` (the median over
traced passes; counts are the same in every pass) and the tracing overhead:
traced minus untraced median pass time.  It also writes the spans and
per-function table of the last traced pass to
``perfbench/out/trace-<workload>.json``.

Times are given in reference-loop units because the speed of a shared host
drifts by up to 25 per cent between minutes, which seconds would carry into
every comparison; the summary line before the JSON gives the pass times in
seconds, and the trace run reports them as ``trace.untraced_wall_s``.

A failed job (it raised, or its output differs from the pinned reference or
from an independent route) makes the exit status nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

MIN_PASSES = 3
SETUP_PROBES = 7
PACKAGE_INIT = os.path.join("src", "raaggrowth", "__init__.py")
OUT_DIR = os.path.join("perfbench", "out")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    return parser.parse_args(argv)


def _probe_setup_s(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready times of fresh processes that only set up."""
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit status {probe.returncode}")
        times.append(ready - start)
    return times


def _machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


class Run:
    """The passes of one invocation and what the gate found in them."""

    def __init__(self, workloads, name: str, seed: int):
        self.w = workloads
        self.jobs = workloads.WORKLOADS[name]
        self.graphs = workloads.setup(name, seed)
        self.gate = workloads.Gate(workloads.load_reference())
        self.attempted = 0
        self.failed = 0

    def one_pass(self):
        result = self.w.run_pass(self.jobs, self.graphs)
        self.attempted += len(self.jobs)
        problems = self.gate.problems(self.jobs, result)
        self.failed += len(problems)
        for key, reasons in problems.items():
            for reason in reasons:
                print(f"FAIL {key}: {reason}", file=sys.stderr)
        return result

    def repeat(self, seconds: float, step) -> list:
        """``step()`` until ``seconds`` have elapsed and at least MIN_PASSES times."""
        out = []
        started = time.perf_counter()
        while len(out) < MIN_PASSES or time.perf_counter() - started < seconds:
            out.append(step())
        return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _untraced(run: Run, args) -> dict:
    setup = _probe_setup_s(args.workload, args.seed)
    passes = run.repeat(args.seconds, run.one_pass)
    walls = [p.wall_s for p in passes]
    unit = statistics.median(r for p in passes for r in p.ref_s)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{min(walls):.3f}/{statistics.median(walls):.3f}/{max(walls):.3f} s (min/median/max); "
          f"setup_s median of {len(setup)} probes; reference loop {unit * 1e3:.2f} ms")
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_ref": _metric(statistics.median(walls) / unit, "ref"),
        "slowest_job_ref": _metric(statistics.median(max(p.job_s) for p in passes) / unit, "ref"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _traced(run: Run, args) -> dict:
    import tracer as tr

    def pair():
        plain = run.one_pass().wall_s
        layer_tracer = tr.Tracer()
        with tr.installed(layer_tracer):
            traced = run.one_pass().wall_s
        return plain, traced, layer_tracer

    pairs = run.repeat(args.seconds, pair)
    metrics = {
        name: _metric(statistics.median(get(t) for _, _, t in pairs), unit)
        for name, (unit, get) in tr.LAYER_METRICS.items()
    }
    traced = statistics.median(t for _, t, _ in pairs)
    plain = statistics.median(p for p, _, _ in pairs)
    metrics["trace.wall_s"] = _metric(traced, "s")
    metrics["trace.untraced_wall_s"] = _metric(plain, "s")
    metrics["trace.overhead_s"] = _metric(traced - plain, "s")
    last = pairs[-1][2]
    top = last.top_self()
    print(f"{args.workload} seed {args.seed}: {len(pairs)} traced passes; top self time "
          + ", ".join(f"{name} {seconds:.3f} s" for name, seconds in top))
    os.makedirs(OUT_DIR, exist_ok=True)
    doc = {
        "workload": args.workload, "seed": args.seed, "machine": _machine(),
        "passes": {"traced_wall_s": [t for _, t, _ in pairs],
                   "untraced_wall_s": [p for p, _, _ in pairs]},
        "metrics": metrics, "top_self_s": top, "functions": last.functions(),
        "spans_min_s": tr.KEEP_SPAN_S,
        "spans": [dict(zip(("id", "parent", "name", "start", "end"), span))
                  for span in last.spans],
    }
    with open(os.path.join(OUT_DIR, f"trace-{args.workload}.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(PACKAGE_INIT):
        print(f"error: {PACKAGE_INIT} not found; run from the root of a raaggrowth checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.probe:
        workloads.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    run = Run(workloads, args.workload, args.seed)
    metrics = (_traced if args.trace else _untraced)(run, args)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
