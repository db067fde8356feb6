"""Exact growth, geodesic and conjugacy growth series of right-angled Artin groups."""

from .automata import (
    AlphabetMismatch,
    Dfa,
    all_words_dfa,
    complement_lang,
    concat,
    count_words,
    cyc_perm,
    empty_language_dfa,
    equivalent,
    growth_series,
    intersect,
    minimize,
    single_word_dfa,
    union,
)
from .graphs import (
    GraphError,
    OrderedAlphabet,
    SimpleGraph,
    parse_graph,
)
from .languages import (
    conjgeo_fsa,
    conjgeo_series_incl_excl,
    cycsl_fsa,
    cycsl_support_series,
    geo_checker,
    geo_fsa,
    lprime_fsa,
    shortlex_fsa,
)
from .oracle import (
    cyclically_reduce,
    element_counts,
    enumerate_classes,
    enumerate_elements,
    is_conjugacy_geodesic,
    is_geodesic,
    normal_form,
)
from .pipeline import (
    ConjGrowthReport,
    cograph_series,
    conj_geodesic_series,
    detect_part1_family,
    geodesic_series,
    part1_crosscheck,
    spherical_conj_series,
    spherical_growth_series,
)
from .series import (
    InvariantError,
    NonIntegralCoefficient,
    PowerSeries,
    RationalFunction,
    euler_phi,
    neck,
    rho,
)

__version__ = "0.1.0"
