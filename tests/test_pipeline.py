import json
import random
from math import prod

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference_languages
from conftest import (
    all_three_vertex_graphs,
    complete_graph,
    cycle_graph,
    labelled_graphs,
    path_graph,
    small_graphs,
    z_star_zn,
)
from raaggrowth import (
    GraphError,
    SimpleGraph,
    cograph_series,
    cycsl_fsa,
    growth_series,
    spherical_conj_series,
    spherical_growth_series,
    conj_geodesic_series,
    geodesic_series,
    detect_part1_family,
    part1_crosscheck,
)
from raaggrowth import automata, languages, pipeline
from raaggrowth.languages import support_exact
from raaggrowth.series import PowerSeries, RationalFunction, rho


def rf(num, den=(1,)):
    return RationalFunction.make(num, den)


ZZ = rf([1, 1], [1, -1])


def test_sigma_tilde_z(z1):
    report = spherical_conj_series(z1, 8)
    assert report.sigma_tilde.coefficients == (1, 2, 2, 2, 2, 2, 2, 2, 2)


def test_sigma_tilde_complete_graphs():
    for n in (1, 2, 3):
        got = spherical_conj_series(complete_graph(n), 10).sigma_tilde
        assert got.coefficients == prod([ZZ] * n, start=rf([1])).expand(10).coefficients


def test_sigma_tilde_free_group(f2):
    got = spherical_conj_series(f2, 8).sigma_tilde
    rivin = rf([1], [1, -3]) + rf([1], [1, -1]) + rf([2], [1, 0, -1]) + rf([-4])
    want = PowerSeries.one(8) + rho(rivin.expand(8))
    assert got.coefficients == want.coefficients


def test_sigma_tilde_basic_invariants(path4):
    for g in all_three_vertex_graphs() + [path4]:
        report = spherical_conj_series(g, 6)
        sig = report.sigma_tilde
        assert sig[0] == 1
        assert sig[1] == 2 * g.n_vertices
        assert all(c >= 0 for c in sig.coefficients)
        # classes are no more numerous than elements
        sigma = spherical_growth_series(g).expand(6)
        assert all(a <= b for a, b in zip(sig.coefficients, sigma.coefficients))


def test_mixed_support_cyclically_shortlex_is_empty():
    # inside Z^2 no word using both generators is cyclically shortlex: some
    # rotation puts the larger letter first.  The per-subset product formula
    # therefore lives at the level of class counts (rho of the blocks), not
    # of the raw full-support language on a decomposable subset.
    g = complete_graph(2)
    aut = support_exact(cycsl_fsa(g), g.alphabet(), [0, 1])
    assert growth_series(aut) == rf([0])


def _oracle_class_counts_by_support(g, max_length):
    from raaggrowth.oracle import conjugacy_class_words, enumerate_elements

    seen = set()
    table = {}
    alph = g.alphabet()
    for layer in enumerate_elements(g, max_length):
        for w in layer:
            key = min(conjugacy_class_words(g, w))
            if key in seen:
                continue
            seen.add(key)
            support = tuple(sorted({alph.vertex(x) for x in key}))
            table.setdefault(support, [0] * (max_length + 1))[len(key)] += 1
    return table


@pytest.mark.parametrize("graph_maker", [
    lambda: SimpleGraph.make(["a", "b", "c"], [["a", "c"]]),
    lambda: SimpleGraph.make(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]]),
])
def test_subset_products_count_classes_by_support(graph_maker):
    # class counts with a given support factor through the complement
    # components: the product of the per-block rho series
    g = graph_maker()
    degree = 4
    report = spherical_conj_series(g, degree)
    oracle_table = _oracle_class_counts_by_support(g, degree)
    for mask in range(1, 1 << g.n_vertices):
        subset = tuple(v for v in range(g.n_vertices) if mask >> v & 1)
        product = PowerSeries.one(degree)
        for block in g.decompose(subset):
            product = product * report.per_subset[block][1]
        expected = tuple(oracle_table.get(subset, [0] * (degree + 1)))
        assert product.coefficients == expected, subset


def test_per_subset_report_and_cache(path4):
    report = spherical_conj_series(path4, 6)
    blocks = set(report.per_subset)
    # indecomposable blocks appearing in the subset sum of the path graph
    assert blocks == {
        (0,), (1,), (2,), (3,),
        (0, 2), (0, 3), (1, 3),
        (0, 1, 3), (0, 2, 3),
        (0, 1, 2, 3),
    }
    rf_ac, rho_ac = report.per_subset[(0, 2)]
    assert rf_ac == rf([0, 0, 8], [1, -3, -1, 3])
    assert rho_ac[2] == 4


def test_report_json_shape_and_determinism(z2):
    doc1 = spherical_conj_series(z2, 5).to_json_dict()
    doc2 = spherical_conj_series(z2, 5).to_json_dict()
    assert json.dumps(doc1) == json.dumps(doc2)
    assert doc1["degree"] == 5
    assert doc1["sigma_tilde"] == ["1", "4", "8", "12", "16", "20"]
    assert "{a}" in doc1["per_subset"]
    entry = doc1["per_subset"]["{a}"]
    assert entry["rational"] == {"num": ["0", "2"], "den": ["1", "-1"]}
    assert entry["rho"][:3] == ["0", "2", "2"]


def test_bounds_and_errors(path4, monkeypatch):
    with pytest.raises(ValueError):
        spherical_conj_series(path4, -1)

    def no_work(*args):
        raise AssertionError("a graph above the vertex bound reached the block stage")

    monkeypatch.setattr(pipeline, "cycsl_support_table", no_work)
    labels = [f"v{i}" for i in range(pipeline.MAX_VERTICES + 1)]
    with pytest.raises(GraphError, match=f"{len(labels)} vertices"):
        spherical_conj_series(SimpleGraph.make(labels, []), 4)


def test_empty_graph_conjugacy_series():
    report = spherical_conj_series(SimpleGraph((), frozenset()), 6)
    assert report.sigma_tilde.coefficients == (1, 0, 0, 0, 0, 0, 0)
    assert report.per_subset == {}


def test_spherical_growth_series_cases(f2):
    assert spherical_growth_series(f2) == rf([1, 1], [1, -3])
    empty = SimpleGraph((), frozenset())
    assert spherical_growth_series(empty) == rf([1])
    for n in (1, 2, 3, 8):
        assert spherical_growth_series(complete_graph(n)) == prod([ZZ] * n, start=rf([1]))


def test_conj_geodesic_series_z(z1):
    for method in ("direct", "incl-excl"):
        assert conj_geodesic_series(z1, method) == ZZ
    with pytest.raises(ValueError):
        conj_geodesic_series(z1, "nope")


def test_geodesic_equals_conj_geodesic_for_abelian():
    # for Z^2, conjugation is trivial, so both routes must reproduce the
    # geodesic series 1 - 4z/(1-z) + 8z/(1-2z)
    g = complete_graph(2)
    want = rf([1]) + rf([0, -4], [1, -1]) + rf([0, 8], [1, -2])
    assert geodesic_series(g) == want
    assert conj_geodesic_series(g, "direct") == want
    assert conj_geodesic_series(g, "incl-excl") == want


def test_conj_geodesic_methods_agree_on_free_rank_4():
    g = SimpleGraph.make(["a", "b", "c", "d"], [])
    assert conj_geodesic_series(g, "direct") == conj_geodesic_series(g, "incl-excl")


def test_part1_families_against_pipeline():
    # free groups of rank 2 and 3
    for k in (2, 3):
        g = SimpleGraph.make([f"g{i}" for i in range(k)], [])
        assert (
            part1_crosscheck(f"free-{k}", 10).coefficients
            == spherical_conj_series(g, 10).sigma_tilde.coefficients
        )
    # Z * Z^1 is the free group of rank 2 again, via the other family
    assert (
        part1_crosscheck("z-star-z-1", 10).coefficients
        == part1_crosscheck("free-2", 10).coefficients
    )


@st.composite
def cographs(draw, max_vertices=7):
    """A random union/join tree on at most ``max_vertices`` leaves, its vertices listed shuffled."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))

    def edges_of(leaves):
        if len(leaves) == 1:
            return set()
        cut = draw(st.integers(min_value=1, max_value=len(leaves) - 1))
        left, right = leaves[:cut], leaves[cut:]
        edges = edges_of(left) | edges_of(right)
        if draw(st.booleans()):  # join; otherwise a disjoint union
            edges |= {(a, b) for a in left for b in right}
        return edges

    edges = edges_of([f"v{i}" for i in range(n)])
    return SimpleGraph.make(draw(st.permutations([f"v{i}" for i in range(n)])), edges)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cographs())
# (F2 x Z) * Z: sigma and sigma~ differ on F2 x Z, unlike on free groups and Z^n
@example(SimpleGraph.make(["a", "b", "c", "d"], [["a", "c"], ["b", "c"]]))
def test_cograph_series_matches_pipeline(g):
    # the union/join recursion shares no automata, closure or Mobius code
    # with the subset pipeline or the shortlex acceptor
    sigma, sigma_tilde = cograph_series(g, 30)
    assert sigma_tilde == spherical_conj_series(g, 30).sigma_tilde
    assert sigma == spherical_growth_series(g)


def test_cograph_series_rejects_induced_p4():
    p4_and_vertex = SimpleGraph.make(["a", "b", "c", "d", "e"], [["a", "b"], ["b", "c"], ["c", "d"]])
    for g in (path_graph(4), cycle_graph(5), p4_and_vertex):
        assert cograph_series(g, 6) is None


def test_part1_unknown_family():
    with pytest.raises(ValueError):
        part1_crosscheck("hexagon", 6)
    with pytest.raises(ValueError):
        part1_crosscheck("free-0", 6)


def test_detect_part1_family(path4, f2):
    assert detect_part1_family(f2) == "free-2"
    assert detect_part1_family(z_star_zn(2)) == "z-star-z-2"
    assert detect_part1_family(path4) == "path4"
    assert detect_part1_family(complete_graph(3)) is None


def test_free_product_with_z_formula():
    # attaching an isolated vertex w' to W multiplies out as
    # sigma~(G_W * Z) = sigma~(G_W) + rho(F_CycSL(ext) - F_CycSL(W))
    degree = 8
    for labels, edges in ((["a"], []), (["a", "b"], [["a", "b"]])):
        w = SimpleGraph.make(labels, edges)
        ext = SimpleGraph.make(labels + ["w1"], edges)
        lhs = spherical_conj_series(ext, degree).sigma_tilde
        diff = growth_series(cycsl_fsa(ext)).expand(degree) - growth_series(cycsl_fsa(w)).expand(degree)
        rhs = spherical_conj_series(w, degree).sigma_tilde + rho(diff)
        assert lhs.coefficients == rhs.coefficients


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_graphs(max_vertices=5))
@example(path_graph(4))
@example(path_graph(5))
@example(cycle_graph(5))
def test_block_series_match_per_block_automata(g):
    # the Mobius sum over letter restrictions of one closure per maximal
    # block gives every block's reduced fraction, and so sigma~, exactly as
    # the block's own support-restricted automaton does
    degree = 10
    report = spherical_conj_series(g, degree)
    want_sigma, want_blocks = reference_languages.spherical_conj_series(g, degree)
    assert report.sigma_tilde == want_sigma
    assert {block: rf for block, (rf, _) in report.per_subset.items()} == want_blocks
    if want_blocks:
        largest = max(want_blocks, key=len)
        assert languages.cycsl_support_series(g, largest) == want_blocks[largest]


def test_direct_conj_geodesic_route_minimizes_no_fold(monkeypatch):
    # the direct route counts the fold _divided_fold(g, _CYC_GEO) unminimized
    # (248 states on C6, 1,406 undivided): Hopcroft sees only the 7-state
    # pullback of the divided closed checker complement, once per vertex,
    # and no closure.  Incl-excl minimizes the pullbacks of the divided
    # L_v and L_v & L'_v
    g = cycle_graph(6)
    assert languages._divided_fold(g, languages._CYC_GEO).n_states == 248
    sizes = []
    real = automata.minimize

    def spy(dfa):
        sizes.append(dfa.n_states)
        return real(dfa)

    monkeypatch.setattr(automata, "minimize", spy)
    monkeypatch.setattr(languages, "minimize", spy)
    direct = conj_geodesic_series(g, "direct")
    assert sizes == [7] * g.n_vertices
    assert direct == conj_geodesic_series(g, "incl-excl")
    assert sizes and max(sizes) <= 7


@pytest.mark.parametrize("g", [path_graph(5), cycle_graph(6), complete_graph(3),
                               SimpleGraph.make(["a", "b", "c"], [["a", "b"], ["a", "c"]])],
                         ids=["P5", "C6", "Z3", "ZxF2"])
def test_counted_routes_divide_each_model_once(g, monkeypatch):
    # the sign swap is a symmetry of each model, carried to every vertex by
    # the pullback: no route divides a per-vertex factor of its own
    calls = []
    real = languages._sign_quotient

    def spy(dfa, v):
        calls.append(v)
        return real(dfa, v)

    monkeypatch.setattr(languages, "_sign_quotient", spy)
    for route, want in [(lambda: geodesic_series(g), 1),
                        (lambda: conj_geodesic_series(g, "direct"), 1),
                        (lambda: conj_geodesic_series(g, "incl-excl"), 2),
                        (lambda: spherical_conj_series(g, 6), len(g.decompose(range(g.n_vertices))))]:
        calls.clear()
        route()
        assert calls == [1] * want


@pytest.mark.parametrize("g", [
    complete_graph(3),  # Z^3: three one-vertex maximal blocks
    SimpleGraph.make(["a", "b", "c"], [["a", "b"], ["a", "c"]]),  # Z x F2: {a} and {b, c}
])
def test_one_closure_per_maximal_block(g, monkeypatch):
    closed = []
    real = languages._divided_fold

    def recording(induced, model):
        if model is languages._CYC_AVOID:
            closed.append(induced.vertices)
        return real(induced, model)

    monkeypatch.setattr(languages, "_divided_fold", recording)
    spherical_conj_series(g, 6)
    maximal = [tuple(g.vertices[v] for v in block) for block in g.decompose(range(g.n_vertices))]
    assert len(maximal) > 1
    assert sorted(closed) == sorted(maximal)


@pytest.mark.parametrize("g, sums, certificates", [
    (path_graph(5), 54, 10),  # one maximal block of 5 vertices, 31 subsets in 10 classes
    (SimpleGraph.make(["a", "b", "c"], [["a", "b"], ["a", "c"]]), 7, 3),  # Z x F2: {a}, {b, c}
    (path_graph(8), 339, 29),  # 255 subsets in 29 classes
    (cycle_graph(8), 214, 22),  # 255 subsets in 22 classes
], ids=["P5", "ZxF2", "P8", "C8"])
def test_block_stage_operation_count(g, sums, certificates, monkeypatch):
    # per maximal block: one certificate per isomorphism class of nonempty
    # induced subgraph (G_empty = 1 needs none), and per class of block B one
    # fraction sum for each class whose signed count among the subsets of B
    # is nonzero
    counts = {"sum": 0, "certify": 0}
    real_sum, real_certify = RationalFunction._sum, languages.restricted_growth_series

    def counting_sum(self, *args):
        counts["sum"] += 1
        return real_sum(self, *args)

    def counting_certify(*args):
        counts["certify"] += 1
        return real_certify(*args)

    monkeypatch.setattr(RationalFunction, "_sum", counting_sum)
    monkeypatch.setattr(languages, "restricted_growth_series", counting_certify)
    spherical_conj_series(g, 6)
    assert counts["sum"] == sums
    assert counts["certify"] == certificates


@st.composite
def relabeled_pairs(draw):
    """A graph on at most 4 vertices and the same graph with its vertices listed in another order."""
    g = draw(small_graphs(max_vertices=4))
    order = draw(st.permutations(g.vertices))
    edges = [(g.vertices[i], g.vertices[j]) for i, j in g.edges]
    return g, SimpleGraph.make(order, edges)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relabeled_pairs())
def test_series_invariant_under_relabeling(pair):
    # the vertex listing order fixes the letter order, and with it the
    # shortlex order and every automaton, but no series may depend on it
    g, relabeled = pair
    assert spherical_growth_series(relabeled) == spherical_growth_series(g)
    assert geodesic_series(relabeled) == geodesic_series(g)
    for method in ("direct", "incl-excl"):
        assert conj_geodesic_series(relabeled, method) == conj_geodesic_series(g, method)
    assert spherical_conj_series(relabeled, 8).sigma_tilde == spherical_conj_series(g, 8).sigma_tilde


def _report_by_labels(report):
    # the report with every block named by its set of labels, which a
    # relabelling keeps
    labels = report.graph.vertices
    return (report.degree, report.sigma_tilde,
            {frozenset(labels[v] for v in block): value for block, value in report.per_subset.items()})


def test_conj_growth_report_invariant_under_random_relabelling():
    # the vertex order fixes the letter order, and with it cyclic shortlex and
    # the class map, which the cyclic checker _CYC_AVOID reads in order; no block
    # fraction, no rho of one and no sigma~ coefficient may depend on it
    rng = random.Random(20261020)
    graphs = [g for n in range(5) for g in labelled_graphs([f"v{i}" for i in range(n)])]
    for g in graphs + [path_graph(5), cycle_graph(5)]:
        edges = [(g.vertices[i], g.vertices[j]) for i, j in g.edges]
        want = _report_by_labels(spherical_conj_series(g, 8))
        for _ in range(2):
            order = rng.sample(g.vertices, len(g.vertices))
            got = _report_by_labels(spherical_conj_series(SimpleGraph.make(order, edges), 8))
            assert got == want, (g.vertices, sorted(g.edges), order)
