"""Every endpoint's exact output on the 52 graphs with 1 to 5 vertices, up to isomorphism.

The corpus was written by ``tests/make_corpus.py``; a change that alters
any integer or reduced fraction on these graphs fails here.  Regenerate it
only for a change that is meant to alter outputs.
"""

import json

from make_corpus import CORPUS, entry, graph_of, least_masks
from raaggrowth import SimpleGraph

ITEMS = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_holds_one_graph_per_isomorphism_class():
    least = {n: least_masks(n) for n in range(1, 6)}
    assert [len(set(least[n])) for n in range(1, 6)] == [1, 2, 4, 11, 34]
    got = [SimpleGraph.make(item["vertices"], item["edges"]) for item in ITEMS]
    assert got == [graph_of(n, mask) for n in range(1, 6) for mask in sorted(set(least[n]))]
    # the library's canonical code separates exactly the same classes
    codes = [(graph_of(n, mask)._canonical_code((1 << n) - 1), (n, least[n][mask]))
             for n in range(1, 6) for mask in range(len(least[n]))]
    assert len(set(codes)) == len({code for code, _ in codes}) == len({form for _, form in codes}) == 52


def test_corpus_outputs_are_unchanged():
    for item in ITEMS:
        g = SimpleGraph.make(item["vertices"], item["edges"])
        got = entry(g)
        assert got["conj_geo_direct"] == got["conj_geo_incl_excl"], item["edges"]
        for key, value in got.items():
            assert value == item[key], (item["vertices"], item["edges"], key)
