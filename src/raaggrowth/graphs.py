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
from dataclasses import dataclass
from functools import cached_property


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
        if not isinstance(vertices, (list, tuple)):  # a string splits, a set lists in hash order
            raise GraphError(f"vertices must be a list or tuple of labels, not a {type(vertices).__name__}")
        vertices = tuple(vertices)
        index = {label: i for i, label in enumerate(vertices)}
        edges = set()
        for pair in edge_pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:  # a string or a dict is no pair
                raise GraphError(f"edge {pair!r} is not a pair")
            ends = []
            for end in pair:
                if isinstance(end, str):
                    if end not in index:
                        raise GraphError(f"unknown endpoint label {end!r}")
                    ends.append(index[end])
                elif type(end) is int:  # bool is an int subclass; floats are not rounded
                    ends.append(end)
                else:
                    raise GraphError(f"endpoint {end!r} is neither a vertex label nor an index")
            i, j = ends
            edges.add((min(i, j), max(i, j)))
        return SimpleGraph(vertices, frozenset(edges))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def alphabet(self) -> OrderedAlphabet:
        return OrderedAlphabet(self.vertices)

    # -- basic graph operations --------------------------------------------

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        if not 0 <= v < self.n_vertices:
            raise GraphError(f"unknown vertex index {v}")
        return frozenset(j for j in range(self.n_vertices) if self.adjacent(v, j))

    @cached_property
    def _adjacency(self) -> list[int]:
        """Neighbour bitmask of every vertex: bit j of entry i is set when i and j are adjacent."""
        adjacency = [0] * self.n_vertices
        for i, j in self.edges:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
        return adjacency

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

    # -- complement decomposition ------------------------------------------

    def decompose(self, subset) -> tuple[tuple[int, ...], ...]:
        """Ordered components of the complement graph restricted to ``subset``.

        Blocks are sorted tuples of vertex indices, ordered by least member:
        a breadth-first search on complement neighbour masks from the least
        vertex not yet placed.
        """
        subset = sorted(set(subset))
        if not subset:
            raise GraphError("cannot decompose the empty subset")
        for v in subset:
            if not 0 <= v < self.n_vertices:
                raise GraphError(f"unknown vertex index {v}")
        adjacency = self._adjacency
        rest = sum(1 << v for v in subset)
        blocks = []
        while rest:
            block = frontier = rest & -rest
            while frontier:
                reach = 0
                for v in subset:
                    if frontier >> v & 1:
                        reach |= ~adjacency[v]
                frontier = reach & rest & ~block
                block |= frontier
            rest &= ~block
            blocks.append(tuple(v for v in subset if block >> v & 1))
        return tuple(blocks)

    def is_indecomposable(self, subset) -> bool:
        subset = set(subset)
        if not subset:
            return False
        return len(self.decompose(subset)) == 1

    # -- isomorphism classes of induced subgraphs ---------------------------

    def _canonical_code(self, mask: int) -> tuple[int, int]:
        """Exact canonical code of the subgraph induced on the vertex bitmask ``mask``.

        Two vertex sets get equal codes exactly when their induced subgraphs
        are isomorphic, whatever graph each lies in.  The code is (k, c) for
        k vertices, with c the largest adjacency word over a set of vertex
        orders; the word of v_0 ... v_{k-1} holds one bit per pair v_j v_i,
        j < i, set on an edge, row i after row i - 1.

        The orders are the leaves of a search on ordered partitions of the
        vertices.  ``_refine`` splits each cell by signature (the number of
        neighbours in every cell) until no cell splits; the search then
        branches on the first cell left with more than one vertex, putting
        each of its vertices in turn in a cell of its own in front of the
        rest, and refines again.  Every step commutes with isomorphisms, so
        isomorphic subgraphs reach the same set of words, and every word is
        the adjacency of one order, so it fixes the subgraph up to
        isomorphism.  A vertex w is skipped when a twin u was tried before it
        in the same cell: swapping twins (N(u) - {w} = N(w) - {u}) is an
        automorphism that fixes every cell, and it carries u's leaves onto
        w's with the same words.  So no hash or invariant stands in for an
        isomorphism test, and the twins of edgeless and complete graphs
        leave one branch per level.
        """
        adjacency = [neighbours & mask for neighbours in self._adjacency]
        best = 0

        def search(cells):
            nonlocal best
            cells = _refine(adjacency, cells)
            at = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
            if at is None:
                order = [cell[0] for cell in cells]
                word = 0
                for i, v in enumerate(order):
                    for u in order[:i]:
                        word = word << 1 | adjacency[v] >> u & 1
                best = max(best, word)
                return
            tried = []
            for w in cells[at]:
                if any(adjacency[w] & ~(1 << u) == adjacency[u] & ~(1 << w) for u in tried):
                    continue
                tried.append(w)
                search(cells[:at] + [[w], [u for u in cells[at] if u != w]] + cells[at + 1:])

        vertices = [v for v in range(self.n_vertices) if mask >> v & 1]
        if vertices:
            search([vertices])
        return len(vertices), best


def _refine(adjacency: list[int], cells: list) -> list:
    """Split every cell by its vertices' neighbour counts in each cell, until none splits.

    The parts of a cell keep its place, in increasing order of signature.
    """
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        split = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            parts = {}
            for v in cell:
                parts.setdefault(tuple((adjacency[v] & m).bit_count() for m in masks), []).append(v)
            split.extend(parts[signature] for signature in sorted(parts))
        if len(split) == len(cells):
            return split
        cells = split


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
