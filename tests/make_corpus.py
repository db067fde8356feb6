"""Write the exact-output corpus: every endpoint on one graph per isomorphism class.

    PYTHONPATH=src python tests/make_corpus.py

writes ``tests/corpus/graphs_1_to_5.json``: the 52 graphs on 1 to 5 vertices
up to isomorphism, each with its standard, geodesic and both
conjugacy-geodesic growth functions and its spherical conjugacy growth
report to degree 12.  ``tests/test_corpus.py`` recomputes every entry, so a
change that alters any output on these graphs fails tier-1.

Each class is represented by its brute-force canonical form: the least edge
mask over all relabellings of the vertices v0 < v1 < ..., with bit i for the
i-th pair of ``itertools.combinations(range(n), 2)``.  It does not use the
library's own canonical code, which ``tests/test_corpus.py`` checks against
it instead.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from raaggrowth import SimpleGraph
from raaggrowth.pipeline import (
    conj_geodesic_series,
    geodesic_series,
    spherical_conj_series,
    spherical_growth_series,
)

CORPUS = Path(__file__).resolve().parent / "corpus" / "graphs_1_to_5.json"
DEGREE = 12  # truncation degree of the spherical conjugacy growth series


def least_masks(n: int) -> list:
    """The least edge mask over all relabellings of each graph on n vertices, indexed by edge mask."""
    pairs = list(itertools.combinations(range(n), 2))
    relabellings = []
    for perm in itertools.permutations(range(n)):
        # bit i of a mask moves to the bit of the relabelled pair
        relabellings.append([pairs.index(tuple(sorted((perm[u], perm[w])))) for u, w in pairs])
    return [min(sum(1 << image[i] for i in range(len(pairs)) if mask >> i & 1) for image in relabellings)
            for mask in range(1 << len(pairs))]


def graph_of(n: int, mask: int) -> SimpleGraph:
    labels = [f"v{i}" for i in range(n)]
    pairs = itertools.combinations(range(n), 2)
    return SimpleGraph.make(labels, [[labels[u], labels[w]] for i, (u, w) in enumerate(pairs)
                                     if mask >> i & 1])


def entry(g: SimpleGraph) -> dict:
    """Every endpoint's full exact output on ``g``, as the CLI renders it."""
    return {
        "std": spherical_growth_series(g).to_json_dict(),
        "geo": geodesic_series(g).to_json_dict(),
        "conj_geo_direct": conj_geodesic_series(g, "direct").to_json_dict(),
        "conj_geo_incl_excl": conj_geodesic_series(g, "incl-excl").to_json_dict(),
        "conj_growth": spherical_conj_series(g, DEGREE).to_json_dict(),
    }


def corpus() -> list:
    graphs = [graph_of(n, mask) for n in range(1, 6) for mask in sorted(set(least_masks(n)))]
    return [{"vertices": list(g.vertices), "edges": sorted(sorted(g.vertices[v] for v in e) for e in g.edges),
             **entry(g)} for g in graphs]


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(item, separators=(",", ":")) for item in corpus())
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")  # one graph per line
