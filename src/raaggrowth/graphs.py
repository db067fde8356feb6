"""Finite simple graphs, ordered generator alphabets, and complement decompositions.

A right-angled Artin group is described by a finite simple graph: one group
generator per vertex, with generators of adjacent vertices commuting.  The
vertex order is the listing order of the input, and it induces the total
order on the doubled alphabet {x_v, x_v^-1 : v} used everywhere else.

Subsets of vertices are handled through the connected components of the
*complement* graph: a subset whose induced complement subgraph is connected
("indecomposable") corresponds to a subgroup that does not split as a direct
product.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass


class GraphError(ValueError):
    """Malformed graph description or invalid vertex/edge arguments."""


@dataclass(frozen=True)
class OrderedAlphabet:
    """Doubled generator alphabet of a vertex list.

    Letter 2*v is the generator of vertex v, letter 2*v+1 its inverse, so the
    natural integer order on letters is compatible with the vertex order and
    puts each generator just before its inverse.  Words are tuples of letters
    and compare shortlex via (len(w), w).
    """

    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return 2 * len(self.labels)

    def vertex(self, letter: int) -> int:
        return letter // 2

    def vertex_letters(self, vertex: int) -> tuple[int, int]:
        return (2 * vertex, 2 * vertex + 1)

    def name(self, letter: int) -> str:
        label = self.labels[letter // 2]
        return label if letter % 2 == 0 else label + "^-1"


@dataclass(frozen=True)
class SimpleGraph:
    """Finite simple graph with ordered vertices.

    ``vertices`` are distinct text labels; ``edges`` hold index pairs (i, j)
    with i < j.  No loops, no multi-edges.  The listing order of ``vertices``
    is the vertex order used for all letter orderings downstream.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise GraphError("duplicate vertex label")
        for label in self.vertices:
            if not isinstance(label, str) or not label:
                raise GraphError("vertex labels must be nonempty strings")
        for e in self.edges:
            i, j = e
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge {e} references unknown vertex index")
            if i == j:
                raise GraphError(f"loop edge at vertex {self.vertices[i]!r}")
            if i > j:
                raise GraphError(f"edge {e} not normalized")

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(vertices, edge_pairs) -> "SimpleGraph":
        """Build from labels and edges given as label or index pairs."""
        vertices = tuple(vertices)
        index = {label: i for i, label in enumerate(vertices)}
        if len(index) != len(vertices):
            raise GraphError("duplicate vertex label")
        edges = set()
        for pair in edge_pairs:
            pair = tuple(pair)
            if len(pair) != 2:
                raise GraphError(f"edge {pair!r} is not a pair")
            ends = []
            for end in pair:
                if isinstance(end, str):
                    if end not in index:
                        raise GraphError(f"unknown endpoint label {end!r}")
                    ends.append(index[end])
                else:
                    ends.append(int(end))
            i, j = ends
            if i == j:
                raise GraphError(f"loop edge at {pair!r}")
            edges.add((min(i, j), max(i, j)))
        return SimpleGraph(vertices, frozenset(edges))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def alphabet(self) -> OrderedAlphabet:
        return OrderedAlphabet(self.vertices)

    # -- basic graph operations --------------------------------------------

    def adjacent(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        if not 0 <= v < self.n_vertices:
            raise GraphError(f"unknown vertex index {v}")
        return frozenset(j for j in range(self.n_vertices) if self.adjacent(v, j))

    def complement(self) -> "SimpleGraph":
        n = self.n_vertices
        edges = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in self.edges
        )
        return SimpleGraph(self.vertices, edges)

    def induced_subgraph(self, subset) -> "SimpleGraph":
        """Subgraph on ``subset`` (ambient indices), vertices in inherited order."""
        subset = sorted(set(subset))
        for v in subset:
            if not 0 <= v < self.n_vertices:
                raise GraphError(f"unknown vertex index {v}")
        local = {v: k for k, v in enumerate(subset)}
        edges = frozenset(
            (local[i], local[j]) for (i, j) in self.edges if i in local and j in local
        )
        return SimpleGraph(tuple(self.vertices[v] for v in subset), edges)

    def connected_components(self) -> list[frozenset[int]]:
        """Maximal connected vertex sets by breadth-first search, ordered by least member."""
        n = self.n_vertices
        adjacency = [[] for _ in range(n)]
        for i, j in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        seen = [False] * n
        components = []
        for start in range(n):
            if seen[start]:
                continue
            queue = deque([start])
            seen[start] = True
            component = []
            while queue:
                v = queue.popleft()
                component.append(v)
                for w in adjacency[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            components.append(frozenset(component))
        components.sort(key=min)
        return components

    # -- complement decomposition ------------------------------------------

    def decompose(self, subset) -> tuple[tuple[int, ...], ...]:
        """Ordered components of the complement graph restricted to ``subset``.

        Blocks are sorted tuples of vertex indices, ordered by least member.
        """
        subset = sorted(set(subset))
        if not subset:
            raise GraphError("cannot decompose the empty subset")
        restricted = self.complement().induced_subgraph(subset)
        blocks = [
            tuple(sorted(subset[k] for k in component))
            for component in restricted.connected_components()
        ]
        blocks.sort(key=lambda block: block[0])
        return tuple(blocks)

    def is_indecomposable(self, subset) -> bool:
        subset = set(subset)
        if not subset:
            return False
        return len(self.decompose(subset)) == 1


def parse_graph(text: str) -> SimpleGraph:
    """Parse the JSON graph format {"vertices": [...], "edges": [[u, v], ...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed graph document: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    unknown = sorted(set(doc) - {"vertices", "edges"})
    if unknown:
        raise GraphError(f"unknown graph document keys {unknown}")
    vertices = doc.get("vertices")
    edges = doc.get("edges", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphError('"vertices" must be a list of strings')
    if not isinstance(edges, list):
        raise GraphError('"edges" must be a list of pairs')
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise GraphError(f"edge {e!r} must be a pair of vertex labels")
    graph = SimpleGraph.make(vertices, edges)
    if len(graph.edges) != len(edges):
        raise GraphError("repeated edge; the graph format has no multi-edges")
    return graph
