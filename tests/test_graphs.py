import itertools
import json
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from conftest import complete_graph, cycle_graph, small_graphs
from raaggrowth import GraphError, SimpleGraph, parse_graph


def test_parse_basic():
    g = parse_graph('{"vertices":["a","b"],"edges":[]}')
    assert g.vertices == ("a", "b")
    assert not g.edges


def test_parse_path_graph():
    g = parse_graph('{"vertices":["a","b","c","d"],"edges":[["a","b"],["b","c"],["c","d"]]}')
    assert sorted(g.edges) == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices":["a"],"edges":[["a","a"]]}',   # loop
        '{"vertices":["a","a"],"edges":[]}',         # duplicate label
        '{"vertices":["a"],"edges":[["a","b"]]}',    # unknown endpoint
        '{"vertices":"a","edges":[]}',               # malformed vertices
        '{"vertices":["a","b"],"edge":[["a","b"]]}',  # unknown key
        '{"vertices":["a","b"],"edges":[["a","b"],["b","a"]]}',  # repeated edge
        'not json',
    ],
)
def test_parse_errors(text):
    with pytest.raises(GraphError):
        parse_graph(text)


def test_complement_path(path4):
    comp = path4.complement()
    assert sorted(comp.edges) == [(0, 2), (0, 3), (1, 3)]  # path c-a-d-b


def test_complement_involution(path4):
    assert path4.complement().complement() == path4


def test_complement_of_complete():
    from conftest import complete_graph

    assert not complete_graph(4).complement().edges


def test_induced_subgraph(path4):
    sub = path4.induced_subgraph([0, 2, 3])
    assert sub.vertices == ("a", "c", "d")
    assert sorted(sub.edges) == [(1, 2)]  # only c-d survives


def test_induced_empty_and_full(path4):
    assert path4.induced_subgraph([]).n_vertices == 0
    assert path4.induced_subgraph(range(4)) == path4


def connected_components(g):
    """Maximal connected vertex sets by breadth-first search, ordered by least member.

    The reference that ``SimpleGraph.decompose`` is checked against.
    """
    n = g.n_vertices
    adjacency = [[] for _ in range(n)]
    for i, j in g.edges:
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


def test_connected_components_edgeless():
    g = SimpleGraph.make(["a", "b", "c"], [])
    assert connected_components(g) == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_connected_components_path_complement(path4):
    assert connected_components(path4.complement()) == [frozenset({0, 1, 2, 3})]


def five_vertex_example():
    # pentagon-like graph: edges 1-2, 1-4, 1-5, 2-3, 3-4, 4-5 (1-indexed labels)
    return SimpleGraph.make(
        ["1", "2", "3", "4", "5"],
        [["1", "2"], ["1", "4"], ["1", "5"], ["2", "3"], ["3", "4"], ["4", "5"]],
    )


def test_five_vertex_decompositions():
    g = five_vertex_example()
    assert g.decompose([0, 1, 2, 3, 4]) == ((0, 1, 2, 3, 4),)
    assert g.decompose([0, 1, 2, 3]) == ((0, 2), (1, 3))
    assert g.decompose([0, 2, 3, 4]) == ((0, 2, 4), (3,))
    assert g.decompose([0, 1, 3, 4]) == ((0,), (1, 3, 4))
    assert g.decompose([0, 3, 4]) == ((0,), (3,), (4,))


def test_five_vertex_component_example():
    g = five_vertex_example()
    comp = g.complement().induced_subgraph([0, 1, 2, 3])
    assert connected_components(comp) == [frozenset({0, 2}), frozenset({1, 3})]


def test_decompose_rejects_empty(path4):
    with pytest.raises(GraphError):
        path4.decompose([])


def test_indecomposable(path4):
    assert path4.is_indecomposable([0, 2])        # a, c do not commute
    assert not path4.is_indecomposable([])
    assert not path4.is_indecomposable([0, 1])    # adjacent pair splits
    from conftest import complete_graph

    k4 = complete_graph(4)
    assert not k4.is_indecomposable([0, 1, 2])


def test_neighbors(path4):
    assert path4.neighbors(1) == {0, 2}
    assert SimpleGraph.make(["a", "b"], []).neighbors(0) == frozenset()
    from conftest import complete_graph

    assert complete_graph(3).neighbors(1) == {0, 2}
    with pytest.raises(GraphError):
        path4.neighbors(9)


def test_alphabet_order(path4):
    alph = path4.alphabet()
    assert alph.size == 8
    assert alph.vertex(5) == 2
    assert alph.vertex_letters(2) == (4, 5)  # a generator, then its inverse x ^ 1
    assert alph.name(0) == "a" and alph.name(1) == "a^-1"
    # letters of earlier vertices all precede letters of later vertices
    for v in range(3):
        assert alph.vertex_letters(v)[1] < alph.vertex_letters(v + 1)[0]


@given(small_graphs(min_vertices=1, max_vertices=5))
def test_decompose_partitions_and_orders(g):
    subset = list(range(g.n_vertices))
    dec = g.decompose(subset)
    flat = [v for block in dec for v in block]
    assert sorted(flat) == subset  # blocks partition the subset
    comp = g.complement()
    for i, block in enumerate(dec):
        # block is connected in the complement
        assert connected_components(comp.induced_subgraph(block)) == [
            frozenset(range(len(block)))
        ]
        # no complement edges between different blocks
        for other in dec[i + 1 :]:
            assert not any(comp.adjacent(u, w) for u in block for w in other)
        # ordering by least member
        if i + 1 < len(dec):
            assert min(block) < min(dec[i + 1])


@given(small_graphs(min_vertices=1, max_vertices=5))
def test_components_of_double_complement(g):
    assert connected_components(g) == connected_components(g.complement().complement())


@settings(max_examples=200)
@given(st.data())
def test_decompose_matches_complement_components(data):
    g = data.draw(small_graphs(min_vertices=1, max_vertices=8))
    subset = data.draw(st.sets(st.sampled_from(range(g.n_vertices)), min_size=1))
    ordered = sorted(subset)
    components = connected_components(g.complement().induced_subgraph(ordered))
    want = tuple(tuple(ordered[k] for k in sorted(component)) for component in components)
    assert g.decompose(subset) == want


def _brute_force_code(g, subset):
    # the largest adjacency word over every order of the subset
    best = 0
    for order in itertools.permutations(subset):
        word = 0
        for i, v in enumerate(order):
            for u in order[:i]:
                word = word << 1 | g.adjacent(u, v)
        best = max(best, word)
    return len(subset), best


def _same_partition(a, b):
    return len(set(a)) == len(set(b)) == len(set(zip(a, b)))


@settings(deadline=None)
@given(small_graphs(max_vertices=6))
def test_canonical_code_classes_are_isomorphism_classes(g):
    # two vertex sets share a code exactly when their induced subgraphs are
    # isomorphic, as a search over every vertex order decides
    masks = range(1 << g.n_vertices)
    codes = [g._canonical_code(mask) for mask in masks]
    brute = [_brute_force_code(g, [v for v in range(g.n_vertices) if mask >> v & 1]) for mask in masks]
    assert _same_partition(codes, brute)


def _relabelled(g, rng):
    order = rng.sample(range(g.n_vertices), g.n_vertices)
    return SimpleGraph.make([g.vertices[v] for v in order],
                            [(g.vertices[i], g.vertices[j]) for i, j in g.edges])


def _named(n, edges):
    return SimpleGraph.make([f"v{i}" for i in range(n)], [(f"v{i}", f"v{j}") for i, j in edges])


@pytest.mark.parametrize("g, h", [
    (cycle_graph(6), _named(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),  # C6 / 2K3
    (_named(6, [(i, j) for i in range(3) for j in range(3, 6)]),  # K3,3 / prism
     _named(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])),
    (_named(8, [(i, j) for i in range(8) for j in range(i + 1, 8) if bin(i ^ j).count("1") == 1]),  # Q3
     _named(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])),  # Wagner V8
    (cycle_graph(7), _named(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])),  # C7 / C3+C4
], ids=["C6-2K3", "K33-prism", "Q3-Wagner", "C7-C3C4"])
def test_canonical_code_separates_graphs_with_one_degree_sequence(g, h):
    # each pair is regular of one degree, so refinement leaves one cell and
    # no degree count tells the two apart; C3+C4 is regular but not
    # vertex-transitive, so a search that skips a branch on a non-twin
    # changes its code under relabelling
    full = (1 << g.n_vertices) - 1
    assert g._canonical_code(full) != h._canonical_code(full)
    rng = random.Random(27)
    for graph in (g, h):
        for _ in range(10):
            assert _relabelled(graph, rng)._canonical_code(full) == graph._canonical_code(full)


@pytest.mark.parametrize("g", [SimpleGraph.make([f"v{i}" for i in range(8)], []), complete_graph(8)],
                         ids=["F8", "Z8"])
def test_canonical_code_classes_of_twin_graphs(g):
    # every two vertices are twins: one class per size, all singletons in one
    classes = {}
    for mask in range(1, 1 << 8):
        classes.setdefault(g._canonical_code(mask), set()).add(mask.bit_count())
    assert len(classes) == 8
    assert all(len(sizes) == 1 for sizes in classes.values())
    assert len({g._canonical_code(1 << v) for v in range(8)}) == 1
