import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import naive_oracle
from conftest import complete_graph
from raaggrowth import SimpleGraph, oracle
from raaggrowth.oracle import (
    OracleBound,
    conjugacy_class_words,
    conjugacy_key,
    conjugacy_min_length,
    cyclically_reduce,
    cycrep_bruteforce,
    element_counts,
    enumerate_classes,
    is_conjugacy_geodesic,
    normal_form,
    prim_bruteforce,
)


def one_edge_triangle():
    return SimpleGraph.make(["a", "b", "c"], [["a", "c"]])


# -- normal forms ----------------------------------------------------------------

def test_cancellation(z1):
    assert normal_form(z1, (0, 1)) == ()
    assert normal_form(z1, (1, 1, 0)) == (1,)


def test_commuting_swap(z2):
    assert normal_form(z2, (2, 0)) == (0, 2)  # b a -> a b


def test_non_commuting_stays(path4):
    c, a = path4.alphabet().positive(2), path4.alphabet().positive(0)
    assert normal_form(path4, (c, a)) == (c, a)  # a, c do not commute here


def test_blocked_cancellation(f2):
    # a b a^-1 is geodesic in the free group
    assert normal_form(f2, (0, 2, 1)) == (0, 2, 1)


def test_cancellation_through_commuting_letters():
    g = SimpleGraph.make(["a", "b"], [["a", "b"]])
    # a b a^-1: b commutes with a, so the pair cancels
    assert normal_form(g, (0, 2, 1)) == (2,)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=7))
def test_normal_form_idempotent_and_non_increasing(word):
    g = one_edge_triangle()
    nf = normal_form(g, tuple(word))
    assert len(nf) <= len(word)
    assert normal_form(g, nf) == nf


def _rewrite_neighbors(g, word):
    """All single shuffle or single-pair-deletion successors of a word."""
    alph = g.alphabet()
    out = set()
    for k in range(len(word) - 1):
        va, vb = alph.vertex(word[k]), alph.vertex(word[k + 1])
        if va != vb and g.adjacent(va, vb):
            out.add(word[:k] + (word[k + 1], word[k]) + word[k + 2:])
    for i in range(len(word)):
        v = alph.vertex(word[i])
        for j in range(i + 1, len(word)):
            if word[j] == alph.inverse(word[i]):
                gap = word[i + 1:j]
                if all(alph.vertex(y) == v or g.adjacent(alph.vertex(y), v) for y in gap):
                    out.add(word[:i] + gap + word[j + 1:])
    return out


def _rewrite_closure(g, word):
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for n in _rewrite_neighbors(g, w):
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return seen


@pytest.mark.parametrize("length", range(5))
def test_normal_form_is_rewriting_reachable(length):
    # soundness: rewriting moves preserve the normal form; completeness: the
    # normal form itself is reachable by shuffles and deletions
    g = one_edge_triangle()
    for word in itertools.product(range(6), repeat=length):
        nf = normal_form(g, word)
        closure = _rewrite_closure(g, word)
        assert nf in closure
        assert all(normal_form(g, u) == nf for u in closure)


@st.composite
def graphs_and_words(draw):
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    g = SimpleGraph.make([chr(ord("a") + i) for i in range(n)], edges)
    word = tuple(draw(st.lists(st.integers(0, 2 * n - 1), max_size=10)))
    return g, word


@settings(max_examples=400, deadline=None)
@given(graphs_and_words())
def test_bitmask_oracle_matches_naive_definitions(case):
    g, word = case
    assert normal_form(g, word) == naive_oracle.normal_form(g, word)
    reduced = cyclically_reduce(g, word)
    assert len(reduced) == len(naive_oracle.cyclically_reduce(g, word))
    assert normal_form(g, reduced) == reduced
    assert conjugacy_key(g, word) == naive_oracle.conjugacy_key(g, word)


def test_oracle_imports_no_automata_code():
    # the oracle validates the automata, so it may use only .graphs and the stdlib
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    forbidden = {"raaggrowth", "automata", "languages", "pipeline", "series"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.module == "graphs", ast.unparse(node)
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            assert not forbidden & set(name.split(".")), ast.unparse(node)


# -- conjugacy -------------------------------------------------------------------

def test_cyclic_reduction(f2):
    # a b a^-1 reduces to b by rotation
    assert cyclically_reduce(f2, (0, 2, 1)) == (2,)
    assert conjugacy_min_length(f2, (0, 2, 1)) == 1


def test_cyclic_reduction_renormalizes_after_peeling():
    # path a - b - c: peeling c ... c^-1 off b c a c^-1 leaves b a, whose
    # normal form is a b
    g = SimpleGraph.make(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    a, b, c = 0, 2, 4
    assert cyclically_reduce(g, (b, c, a, c ^ 1)) == (a, b)


def test_conjugacy_geodesic_membership(f2):
    assert is_conjugacy_geodesic(f2, (0, 2))
    assert not is_conjugacy_geodesic(f2, (0, 2, 1))
    assert is_conjugacy_geodesic(f2, ())


def test_conjugacy_class_words_reduces_its_argument(path4):
    alph = path4.alphabet()
    a, b, c = alph.positive(0), alph.positive(1), alph.positive(2)
    word = (b, a, c, alph.inverse(c), alph.inverse(a), b)  # unreduced; conjugate to b b
    assert normal_form(path4, word) != word
    closure = conjugacy_class_words(path4, word)
    assert closure == conjugacy_class_words(path4, normal_form(path4, word))
    assert closure == {(b, b)}


def test_conjugacy_key_identifies_conjugates(path4):
    alph = path4.alphabet()
    a, c, d = alph.positive(0), alph.positive(2), alph.positive(3)
    cache = {}
    assert conjugacy_key(path4, (a, c, d), cache) == conjugacy_key(path4, (c, d, a), cache)
    # c and d commute: d c a is also conjugate
    assert conjugacy_key(path4, (a, c, d), cache) == conjugacy_key(path4, (d, c, a), cache)
    assert conjugacy_key(path4, (a, c, d), cache) != conjugacy_key(path4, (a, d, c, c), cache)


def test_enumerate_classes_z(z1):
    assert enumerate_classes(z1, 5) == [1, 2, 2, 2, 2, 2]


def test_enumerate_classes_z2(z2):
    assert enumerate_classes(z2, 4) == [1, 4, 8, 12, 16]


def test_enumerate_classes_free_group(f2):
    assert enumerate_classes(f2, 4) == [1, 4, 8, 12, 26]


def test_element_counts_free_group(f2):
    assert element_counts(f2, 4) == [1, 4, 12, 36, 108]


def test_element_counts_z3():
    assert element_counts(complete_graph(3), 3) == [1, 6, 18, 38]


def test_oracle_cap():
    with pytest.raises(OracleBound):
        enumerate_classes(complete_graph(2), 9)
    with pytest.raises(OracleBound):
        element_counts(complete_graph(2), -1)


# -- finite language helpers -------------------------------------------------------

def test_cycrep_pairs():
    assert cycrep_bruteforce({(0, 1), (1, 0)}) == {(0, 1)}


def test_cycrep_six_words():
    words = {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert cycrep_bruteforce(words) == {(0, 0, 1), (0, 1, 1)}


def test_cycrep_requires_rotation_closed():
    with pytest.raises(ValueError):
        cycrep_bruteforce({(0, 1)})


def test_prim_examples():
    assert prim_bruteforce({(0,), (0, 0), (0, 1)}) == {(0,), (0, 1)}
    assert (0, 0, 0) not in prim_bruteforce({(0,), (0, 0, 0)})
    with pytest.raises(ValueError):
        prim_bruteforce({(), (0,)})
