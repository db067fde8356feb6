"""Record the pinned outputs in ``perfbench/reference.json``.

Run from the root of a source checkout, on the commit whose outputs are to be
pinned:

    python3 perfbench/record.py

Every job of every workload runs once in the listed vertex order (seed 0).  Before
anything is written, the outputs pass the independent routes of the gate,
and the P5 and C5 series are compared with the brute-force oracle up to
length ``ORACLE_LENGTH``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

ORACLE_LENGTH = 5


def _oracle_counts(rg, g, length):
    """Brute-force counts by length: geodesic and conjugacy-geodesic words."""
    geo = [0] * (length + 1)
    conj_geo = [0] * (length + 1)
    letters = range(g.alphabet().size)
    for n in range(length + 1):
        for word in itertools.product(letters, repeat=n):
            if rg.is_geodesic(g, word):
                geo[n] += 1
                conj_geo[n] += rg.is_conjugacy_geodesic(g, word)
    return geo, conj_geo


def cross_validate(rg, workloads, reference: dict) -> list[str]:
    """Mismatches between the P5/C5 reference and the oracle (empty if none)."""
    mismatches = []
    for name in ("P5", "C5"):
        g = workloads.setup("conj-growth-d20", 0)[name]
        n = ORACLE_LENGTH
        geo, conj_geo = _oracle_counts(rg, g, n)
        expected = {
            f"conj-growth/{name}/20": rg.enumerate_classes(g, n),
            f"std/{name}": rg.element_counts(g, n),
            f"geo/{name}": geo,
            f"conj-geo-direct/{name}": conj_geo,
        }
        for key, counts in expected.items():
            value = reference[key]
            if isinstance(value, dict):
                value = rg.RationalFunction.make(
                    [int(c) for c in value["num"]], [int(c) for c in value["den"]]
                ).expand(n).to_strings()
            if value[: n + 1] != [str(c) for c in counts]:
                mismatches.append(f"{key}: {value[:n + 1]} != oracle {counts}")
            print(f"cross-validated {key} to length {n}", file=sys.stderr)
    return mismatches


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    import raaggrowth as rg
    import workloads

    reference = {}
    results = {}
    for name, jobs in workloads.WORKLOADS.items():
        results[name] = result = workloads.run_pass(jobs, workloads.setup(name, 0))
        if result.errors:
            print(json.dumps(result.errors, indent=1), file=sys.stderr)
            return 1
        for job, value in zip(jobs, result.values):
            reference[job.key] = workloads.encode(value)
        print(f"recorded {name} in {result.wall_s:.2f} s", file=sys.stderr)
    gate = workloads.Gate(reference)
    problems = {}
    for name, jobs in workloads.WORKLOADS.items():
        problems.update(gate.problems(jobs, results[name]))
    mismatches = [f"{key}: {reasons}" for key, reasons in problems.items()]
    mismatches += cross_validate(rg, workloads, reference)
    if mismatches:
        print("\n".join(mismatches), file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(reference.items())]
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reference)} outputs to {workloads.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
