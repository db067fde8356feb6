import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import naive_oracle
from conftest import complete_graph, labelled_graphs, small_graphs
from raaggrowth import SimpleGraph, oracle
from raaggrowth.oracle import (
    OracleBound,
    conjugacy_class_words,
    cyclically_reduce,
    element_counts,
    enumerate_classes,
    enumerate_elements,
    is_conjugacy_geodesic,
    normal_form,
)


def one_edge_triangle():
    return SimpleGraph.make(["a", "b", "c"], [["a", "c"]])


# every graph on at most 4 labelled vertices: letter order matters to normal forms
UP_TO_FOUR_VERTICES = [g for n in range(1, 5) for g in labelled_graphs([f"v{i}" for i in range(n)])]


# -- normal forms ----------------------------------------------------------------

def test_cancellation(z1):
    assert normal_form(z1, (0, 1)) == ()
    assert normal_form(z1, (1, 1, 0)) == (1,)


def test_commuting_swap(z2):
    assert normal_form(z2, (2, 0)) == (0, 2)  # b a -> a b


def test_non_commuting_stays(path4):
    c, a = 4, 0
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
            if word[j] == word[i] ^ 1:
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
    naive_reduced = naive_oracle.cyclically_reduce(g, word)
    assert len(reduced) == len(naive_reduced)
    assert normal_form(g, reduced) == reduced
    assert min(conjugacy_class_words(g, word)) == naive_oracle.conjugacy_key(g, word)
    # a move shortens the normal form exactly when a rotation does
    shortened = len(naive_reduced) < len(normal_form(g, word))
    assert (oracle._orbit(oracle._blockers(g), normal_form(g, word)) is None) == shortened


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
    assert len(cyclically_reduce(f2, (0, 2, 1))) == 1


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
    a, b, c = 0, 2, 4
    word = (b, a, c, c ^ 1, a ^ 1, b)  # unreduced; conjugate to b b
    assert normal_form(path4, word) != word
    closure = conjugacy_class_words(path4, word)
    assert closure == conjugacy_class_words(path4, normal_form(path4, word))
    assert closure == {(b, b)}


def test_conjugacy_key_identifies_conjugates(path4):
    # the least word of the closure is the class's key
    def key(word):
        return min(conjugacy_class_words(path4, word))

    a, c, d = 0, 4, 6
    assert key((a, c, d)) == key((c, d, a))
    # c and d commute: d c a is also conjugate
    assert key((a, c, d)) == key((d, c, a))
    assert key((a, c, d)) != key((a, d, c, c))


def test_class_orbits_are_the_normal_forms_of_the_naive_closure():
    # every cyclically reduced normal form up to length 5: its orbit is the set
    # of normal forms of the brute-force rotation-and-swap closure of its class
    for g in UP_TO_FOUR_VERTICES:
        checked = set()
        for layer in enumerate_elements(g, 5):
            for w in layer:
                if w in checked or not is_conjugacy_geodesic(g, w):
                    continue
                expected = {normal_form(g, u) for u in naive_oracle.rotation_swap_closure(g, w)}
                for u in expected:
                    assert oracle._orbit(oracle._blockers(g), u) == expected, (g, u)
                checked |= expected


def _naive_layers(g, max_length):
    """Naive normal forms of length k, for k <= max_length, each a letter more than the last."""
    layers = [{()}]
    for length in range(1, max_length + 1):
        products = (naive_oracle.normal_form(g, u + (x,)) for u in layers[-1] for x in range(g.alphabet().size))
        layers.append({w for w in products if len(w) == length})
    return layers


def test_element_sweep_makes_each_element_once():
    for g in UP_TO_FOUR_VERTICES:
        for layer, naive in zip(enumerate_elements(g, 4), _naive_layers(g, 4), strict=True):
            assert layer == sorted(set(layer)), g  # duplicate-free, in lexicographic order
            assert set(layer) == naive, g


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


@settings(max_examples=40, deadline=None)
@given(small_graphs(min_vertices=1, max_vertices=4), st.integers(0, 4))
def test_enumerations_match_naive_reference(g, length):
    assert element_counts(g, length) == naive_oracle.element_counts(g, length)
    assert enumerate_classes(g, length) == naive_oracle.class_counts(g, length)


def test_class_count_runs_one_closure_per_class(monkeypatch, path4):
    # the layer walk neither renormalizes nor cyclically reduces a word, and
    # closes each class exactly once
    def refuse(*args, **kwargs):
        raise AssertionError("the class count called a per-word routine")

    closures = []
    orbit = oracle._orbit

    def counted(blockers, start):
        result = orbit(blockers, start)
        if result is not None:
            closures.append(start)
        return result

    monkeypatch.setattr(oracle, "normal_form", refuse)
    monkeypatch.setattr(oracle, "cyclically_reduce", refuse)
    monkeypatch.setattr(oracle, "_orbit", counted)
    counts = enumerate_classes(path4, 5)
    assert len(closures) == sum(counts)
    assert len(set(closures)) == len(closures)


def test_oracle_cap():
    assert len(element_counts(complete_graph(2), 10)) == 11
    with pytest.raises(OracleBound):
        enumerate_classes(complete_graph(2), 11)
    with pytest.raises(OracleBound):
        element_counts(complete_graph(2), -1)


def test_oracle_word_bound(monkeypatch, f2):
    # F2's ball of radius 4 holds 161 elements, so it is refused.  Z^3's holds
    # 129, and every class orbit lies inside its layer, so the class count is
    # admitted too.
    monkeypatch.setattr(oracle, "ORACLE_MAX_WORDS", 150)
    assert element_counts(f2, 3) == [1, 4, 12, 36]
    with pytest.raises(OracleBound, match="ball of radius 4"):
        element_counts(f2, 4)
    z3 = complete_graph(3)
    assert element_counts(z3, 4) == [1, 6, 18, 38, 66]
    assert enumerate_classes(z3, 4) == [1, 6, 18, 38, 66]


# -- finite language helpers (test references in naive_oracle) ---------------------

def test_cycrep_pairs():
    assert naive_oracle.cycrep_bruteforce({(0, 1), (1, 0)}) == {(0, 1)}


def test_cycrep_six_words():
    words = {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert naive_oracle.cycrep_bruteforce(words) == {(0, 0, 1), (0, 1, 1)}


def test_cycrep_requires_rotation_closed():
    with pytest.raises(ValueError):
        naive_oracle.cycrep_bruteforce({(0, 1)})


def test_prim_examples():
    assert naive_oracle.prim_bruteforce({(0,), (0, 0), (0, 1)}) == {(0,), (0, 1)}
    assert (0, 0, 0) not in naive_oracle.prim_bruteforce({(0,), (0, 0, 0)})
    with pytest.raises(ValueError):
        naive_oracle.prim_bruteforce({(), (0,)})
