import json

import pytest
from hypothesis import given

from conftest import small_graphs
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


def test_connected_components_edgeless():
    g = SimpleGraph.make(["a", "b", "c"], [])
    assert g.connected_components() == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_connected_components_path_complement(path4):
    assert path4.complement().connected_components() == [frozenset({0, 1, 2, 3})]


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
    assert comp.connected_components() == [frozenset({0, 2}), frozenset({1, 3})]


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
        assert comp.induced_subgraph(block).connected_components() == [
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
    assert g.connected_components() == g.complement().complement().connected_components()
