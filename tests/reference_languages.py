"""Reference conjugacy-geodesic acceptor: one closure of the whole geodesic complement.

The straightforward form of ``languages.conjgeo_fsa``: complement the
geodesic acceptor, close that under cyclic permutation, and complement
again.  The library closes the complement of each per-vertex checker instead
and unions the results; the tests compare the two constructions.
"""

from __future__ import annotations

from raaggrowth.automata import Dfa, complement_lang, cyc_perm
from raaggrowth.graphs import SimpleGraph
from raaggrowth.languages import geo_fsa


def conjgeo_fsa(g: SimpleGraph) -> Dfa:
    """Conjugacy geodesic words (= words with every rotation geodesic)."""
    return complement_lang(cyc_perm(complement_lang(geo_fsa(g))))
