"""Write the exact-output corpus: every endpoint on one graph per isomorphism class.

    PYTHONPATH=src python tests/make_corpus.py
    PYTHONPATH=src python tests/make_corpus.py --check

The first writes two files.  ``tests/corpus/graphs_1_to_5.json`` holds the
52 graphs on 1 to 5 vertices up to isomorphism, and
``tests/corpus/graphs_6.json`` the 156 graphs on 6 vertices plus the
8-vertex path, cycle, complete and edgeless graphs P8, C8, Z8 and F8.  Each
graph comes with its standard, geodesic and both conjugacy-geodesic growth
functions and its spherical conjugacy growth report to degree 12.
``tests/test_corpus.py`` recomputes every entry of the first file, so a
change that alters any output on those graphs fails tier-1.  The second
file takes about half a minute to recompute and is left out of tier-1;
``--check`` recomputes the stored graphs' entries of both files, without
re-enumerating the classes, and exits nonzero on the first difference.

Each class is represented by its brute-force canonical form: the least edge
mask over all relabellings of the vertices v0 < v1 < ..., with bit i for the
i-th pair of ``itertools.combinations(range(n), 2)``.  It does not use the
library's own canonical code, which ``tests/test_corpus.py`` checks against
it instead.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

from raaggrowth import SimpleGraph
from raaggrowth.pipeline import (
    conj_geodesic_series,
    geodesic_series,
    spherical_conj_series,
    spherical_growth_series,
)

CORPUS = Path(__file__).resolve().parent / "corpus" / "graphs_1_to_5.json"
CORPUS_6 = CORPUS.with_name("graphs_6.json")
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


def eight_vertex_graphs() -> list:
    """P8, C8, Z8 (the complete graph) and F8 (the edgeless graph), on v0, ..., v7."""
    labels = [f"v{i}" for i in range(8)]
    ring = [[labels[i], labels[(i + 1) % 8]] for i in range(8)]
    return [SimpleGraph.make(labels, ring[:-1]), SimpleGraph.make(labels, ring),
            SimpleGraph.make(labels, itertools.combinations(labels, 2)), SimpleGraph.make(labels, [])]


def entry(g: SimpleGraph) -> dict:
    """Every endpoint's full exact output on ``g``, as the CLI renders it."""
    return {
        "std": spherical_growth_series(g).to_json_dict(),
        "geo": geodesic_series(g).to_json_dict(),
        "conj_geo_direct": conj_geodesic_series(g, "direct").to_json_dict(),
        "conj_geo_incl_excl": conj_geodesic_series(g, "incl-excl").to_json_dict(),
        "conj_growth": spherical_conj_series(g, DEGREE).to_json_dict(),
    }


def corpus(graphs) -> list:
    return [{"vertices": list(g.vertices), "edges": sorted(sorted(g.vertices[v] for v in e) for e in g.edges),
             **entry(g)} for g in graphs]


def classes(sizes) -> list:
    """One graph per isomorphism class on each number of vertices in ``sizes``, by least mask."""
    return [graph_of(n, mask) for n in sizes for mask in sorted(set(least_masks(n)))]


def check(path: Path) -> bool:
    """Whether every stored graph of the corpus file ``path`` still gets its stored entry."""
    for item in json.loads(path.read_text(encoding="utf-8")):
        got = entry(SimpleGraph.make(item["vertices"], item["edges"]))
        for key, value in got.items():
            if value != item[key]:
                print(f"{path.name}: {key} differs on {item['vertices']} {item['edges']}", file=sys.stderr)
                return False
    return True


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(0 if all(check(path) for path in (CORPUS, CORPUS_6)) else 1)
    if sys.argv[1:]:
        sys.exit("usage: make_corpus.py [--check]")
    CORPUS.parent.mkdir(exist_ok=True)
    for path, graphs in ((CORPUS, classes(range(1, 6))), (CORPUS_6, classes([6]) + eight_vertex_graphs())):
        lines = ",\n".join(json.dumps(item, separators=(",", ":")) for item in corpus(graphs))
        path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")  # one graph per line
