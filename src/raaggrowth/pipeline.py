"""Assembly of the growth-series endpoints.

The spherical conjugacy growth series of a right-angled Artin group is

    1 + sum over nonempty vertex subsets U, with complement components
    (U_1, ..., U_m), of the product rho(F_1) ... rho(F_m),

where F_i is the growth series of the cyclically-shortlex words supported
exactly on U_i.  Every indecomposable block lies inside one maximal block (a
component of the whole graph's complement), and one table per maximal block
(``languages.cycsl_support_table``) gives all their series at once: one
cyclically-shortlex checker fold, lumped once with one colour per vertex, one
letter restriction read off that quotient per isomorphism class of induced
subgraph, and one Mobius sum per class of block over the classes of its
subsets.  Each block is kept as its reduced fraction and the rho of its
expansion, taken once per distinct fraction, and the subset sum then only
multiplies and adds truncated series.

``cograph_series`` is an independent closed form on a cograph (no induced
P4), by its union/join tree: one vertex has sigma = sigma~ = (1+z)/(1-z), a
join (direct product) multiplies both, and a disjoint union (free product) has
sigma~_{A*B} = sigma~_A + sigma~_B - 1 + neck((sigma_A - 1)(sigma_B - 1))
(Part I of the paper) and 1/sigma_{A*B} = 1/sigma_A + 1/sigma_B - 1 (de la
Harpe, Topics in Geometric Group Theory, Ch. VI); sigma is the standard series.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import growth_series
from .graphs import GraphError, SimpleGraph
from .languages import (
    _CYC_GEO,
    _GEO,
    _SHORTLEX,
    _divided_fold,
    conjgeo_series_incl_excl,
    cycsl_support_table,
)
from .series import InvariantError, PowerSeries, RationalFunction, neck, poly_mul, rho

MAX_VERTICES = 8  # 2^n - 1 vertex subsets; graphs with more vertices are rejected before any work


@dataclass
class ConjGrowthReport:
    """Spherical conjugacy growth data for one graph at one truncation degree."""

    graph: SimpleGraph
    degree: int
    sigma_tilde: PowerSeries
    per_subset: dict  # block (vertex tuple) -> (RationalFunction, rho PowerSeries)

    def to_json_dict(self) -> dict:
        def block_name(block):
            return "{" + ",".join(self.graph.vertices[v] for v in block) + "}"

        return {
            "degree": self.degree,
            "sigma_tilde": self.sigma_tilde.to_strings(),
            "per_subset": {
                block_name(block): {
                    "rational": rf.to_json_dict(),
                    "rho": series.to_strings(),
                }
                for block, (rf, series) in sorted(self.per_subset.items())
            },
        }


def spherical_conj_series(g: SimpleGraph, degree: int) -> ConjGrowthReport:
    """Spherical conjugacy growth series, truncated at ``degree``."""
    total = PowerSeries.one(degree)  # refuses a negative degree before any table work
    n = g.n_vertices
    if n > MAX_VERTICES:
        raise GraphError(f"graph has {n} vertices, above the bound {MAX_VERTICES}")

    per_subset = {}
    rhos = {}  # isomorphic blocks share their reduced fraction, and so its rho
    # an indecomposable block lies inside one maximal block, a component of
    # the whole graph's complement: one table per maximal block holds them all
    for top in g.decompose(range(n)) if n else ():
        for block, rf in cycsl_support_table(g, top).items():
            if g.is_indecomposable(block):
                if rf not in rhos:
                    rhos[rf] = rho(rf.expand(degree))
                per_subset[block] = (rf, rhos[rf])
            elif rf.num != (0,):  # F_B = 0 by the decomposable-block lemma of cycsl_support_table
                raise InvariantError(f"decomposable block {block} has a nonzero series")

    for mask in range(1, 1 << n):
        subset = [v for v in range(n) if mask >> v & 1]
        product = PowerSeries.one(degree)
        for block in g.decompose(subset):
            product = product * per_subset[block][1]
        total = total + product

    if total[0] != 1 or any(c < 0 for c in total.coefficients):
        raise InvariantError("sigma~ must have constant term 1 and nonnegative coefficients")
    return ConjGrowthReport(g, degree, total, per_subset)


def spherical_growth_series(g: SimpleGraph) -> RationalFunction:
    """Standard growth series, counted on the ``languages._divided_fold`` of the shortlex model.

    The pullbacks of ``_SHORTLEX`` intersect to ``shortlex_fsa``, which
    holds one normal form per element.
    """
    return growth_series(_divided_fold(g, _SHORTLEX))


def geodesic_series(g: SimpleGraph) -> RationalFunction:
    """Geodesic growth series, counted on the ``languages._divided_fold`` of the checker model.

    The pullbacks of ``_GEO`` intersect to ``geo_fsa``, and the fold of
    their sign quotients counts the geodesic words.
    """
    return growth_series(_divided_fold(g, _GEO))


def conj_geodesic_series(g: SimpleGraph, method: str = "direct") -> RationalFunction:
    """Conjugacy geodesic growth series.

    ``direct`` counts the ``languages._divided_fold`` of the cyclic geodesic
    checker model ``_CYC_GEO``, whose pullbacks intersect to ``conjgeo_fsa``;
    ``incl-excl`` evaluates the alternating sum over vertex subsets.  The two
    routes are independent and must agree.
    """
    if method == "direct":
        return growth_series(_divided_fold(g, _CYC_GEO))
    if method == "incl-excl":
        return conjgeo_series_incl_excl(g)
    raise ValueError(f"unknown method {method!r}; expected 'direct' or 'incl-excl'")


# ---------------------------------------------------------------------------
# closed-form cross-check expressions
# ---------------------------------------------------------------------------

_ONE_MINUS_Z = (1, -1)


def _reciprocal(f: RationalFunction) -> RationalFunction:
    return RationalFunction.make(f.den, f.num)


def cograph_series(g: SimpleGraph, degree: int) -> tuple | None:
    """(sigma reduced, sigma~ to ``degree``) of a nonempty cograph; None on an induced P4."""
    n = g.n_vertices
    if n == 1:
        zz = RationalFunction.make((1, 1), _ONE_MINUS_Z)
        return zz, zz.expand(degree)
    components = g.complement().decompose(range(n))  # the components of g, by least member
    parts = components if len(components) > 1 else g.decompose(range(n))
    if len(parts) == 1:
        return None  # connected with a connected complement: not a cograph
    pieces = [cograph_series(g.induced_subgraph(part), degree) for part in parts]
    if None in pieces:
        return None
    one = RationalFunction.make([1])
    sigma, tilde = pieces[0]
    for sigma_b, tilde_b in pieces[1:]:
        if len(components) == 1:  # join: a direct product
            sigma, tilde = sigma * sigma_b, tilde * tilde_b
        else:  # disjoint union: a free product
            cross = ((sigma - one) * (sigma_b - one)).expand(degree)
            tilde = tilde + tilde_b - PowerSeries.one(degree) + neck(cross)
            sigma = _reciprocal(_reciprocal(sigma) + _reciprocal(sigma_b) - one)
    return sigma, tilde


def part1_crosscheck(expr: str, degree: int) -> PowerSeries:
    """Evaluate a built-in closed form of sigma~ for cross-checking.

    Known families:

    * ``free-<k>``      -- free group of rank k (k isolated vertices);
    * ``z-star-z-<n>``  -- free product of Z with Z^n (a vertex and K_n);
    * ``path4``         -- the four-vertex path a-b-c-d.

    The first two are cographs, evaluated by ``cograph_series``; ``path4`` is
    a hand-derived necklace form.  None uses the subset/rho pipeline.
    """
    if expr.startswith("free-"):
        k = int(expr.split("-", 1)[1])
        if k < 1:
            raise ValueError("free rank must be >= 1")
        return cograph_series(SimpleGraph.make([str(i) for i in range(k)], []), degree)[1]

    if expr.startswith("z-star-z-"):
        n = int(expr.rsplit("-", 1)[1])
        if n < 1:
            raise ValueError("abelian rank must be >= 1")
        clique = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        return cograph_series(SimpleGraph.make([str(i) for i in range(n + 1)], clique), degree)[1]

    if expr == "path4":
        square = poly_mul(_ONE_MINUS_Z, _ONE_MINUS_Z)
        head = RationalFunction.make((1, 6, 5), square).expand(degree)
        factor = RationalFunction.make((1, 3), _ONE_MINUS_Z).expand(degree)
        neck1 = neck(RationalFunction.make((0, 0, 4), square).expand(degree))
        neck2 = neck(RationalFunction.make((0, 0, 8), poly_mul(_ONE_MINUS_Z, (1, -3))).expand(degree))
        return head + factor * neck1 + neck2

    raise ValueError(f"unknown closed-form family {expr!r}")


def detect_part1_family(g: SimpleGraph) -> str | None:
    """Match a graph against the built-in closed-form families."""
    n = g.n_vertices
    if n >= 1 and not g.edges:
        return f"free-{n}"
    for v in range(n):
        others = [w for w in range(n) if w != v]
        if g.neighbors(v):
            continue
        complete = all(g.adjacent(u, w) for i, u in enumerate(others) for w in others[i + 1:])
        if complete and len(others) >= 1:
            return f"z-star-z-{len(others)}"
    if n == 4 and len(g.edges) == 3:
        degrees = sorted(sum(1 for e in g.edges if v in e) for v in range(4))
        if degrees == [1, 1, 2, 2]:  # the only such graph on four vertices
            return "path4"
    return None
