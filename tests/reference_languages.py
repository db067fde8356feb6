"""Reference constructions: the straightforward forms of two library routes.

* ``conjgeo_fsa``: complement the geodesic acceptor, close that under cyclic
  permutation, and complement again.  The library closes the complement of
  each per-vertex checker instead and unions the results.
* ``spherical_conj_series``: the subset sum with every indecomposable block's
  series read off its own automaton, the cyclically-shortlex language of the
  block's induced subgraph intersected with the support constraints
  (``cycsl_support_fsa``).  The library takes the block series by Mobius
  inversion over letter restrictions of one closure per maximal block.

The tests compare each pair of constructions.
"""

from __future__ import annotations

from raaggrowth.automata import Dfa, complement_lang, cyc_perm, growth_series
from raaggrowth.graphs import SimpleGraph
from raaggrowth.languages import cycsl_support_fsa, geo_fsa
from raaggrowth.series import PowerSeries, rho


def conjgeo_fsa(g: SimpleGraph) -> Dfa:
    """Conjugacy geodesic words (= words with every rotation geodesic)."""
    return complement_lang(cyc_perm(complement_lang(geo_fsa(g))))


def spherical_conj_series(g: SimpleGraph, degree: int):
    """sigma~ truncated at ``degree`` and each block's growth function, one automaton per block."""
    blocks = {}
    total = PowerSeries.one(degree)
    for mask in range(1, 1 << g.n_vertices):
        product = PowerSeries.one(degree)
        for block in g.decompose([v for v in range(g.n_vertices) if mask >> v & 1]):
            if block not in blocks:
                blocks[block] = growth_series(cycsl_support_fsa(g, block))
            product = product * rho(blocks[block].expand(degree))
        total = total + product
    return total, blocks
