"""Naive reference definitions for the oracle's normal forms and conjugacy keys.

Exhaustive cancellation, a quadratic greedy extraction and rotate-and-
renormalize cyclic reduction, written straight from the definitions with
``g.alphabet()`` and ``g.adjacent()``.  The tests compare the oracle's
bitmask routines against these on small graphs.
"""

from __future__ import annotations


def _cancel_once(g, word):
    """Remove one cancelling pair x ... x^-1 whose gap commutes with x."""
    alphabet = g.alphabet()
    for i, x in enumerate(word):
        v = alphabet.vertex(x)
        inverse = alphabet.inverse(x)
        for j in range(i + 1, len(word)):
            w = alphabet.vertex(word[j])
            if word[j] == inverse:
                return word[:i] + word[i + 1:j] + word[j + 1:]
            if w != v and not g.adjacent(v, w):
                break  # this letter sits between any farther pair as well
    return None


def normal_form(g, word) -> tuple:
    """Shortlex normal form: cancel pairs, then emit the least front-movable letter."""
    alphabet = g.alphabet()
    word = tuple(word)
    while True:
        shorter = _cancel_once(g, word)
        if shorter is None:
            break
        word = shorter
    remaining = list(word)
    out = []
    while remaining:
        best = None
        for p, x in enumerate(remaining):
            v = alphabet.vertex(x)
            movable = all(
                alphabet.vertex(y) != v and g.adjacent(alphabet.vertex(y), v)
                for y in remaining[:p]
            )
            if movable and (best is None or x < remaining[best]):
                best = p
        out.append(remaining.pop(best))
    return tuple(out)


def _rotations(word):
    return [word[k:] + word[:k] for k in range(len(word))] or [word]


def cyclically_reduce(g, word) -> tuple:
    """Rotate and renormalize until no rotation shortens the word."""
    word = normal_form(g, word)
    while True:
        for rotated in _rotations(word):
            candidate = normal_form(g, rotated)
            if len(candidate) < len(word):
                word = candidate
                break
        else:
            return word


def conjugacy_key(g, word) -> tuple:
    """Lex-least word of the rotation/shuffle closure of the naive cyclic reduction."""
    alphabet = g.alphabet()
    start = cyclically_reduce(g, word)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        nxt = w[1:] + w[:1]
        if nxt not in seen:
            seen.add(nxt)
            stack.append(nxt)
        for k in range(len(w) - 1):
            va, vb = alphabet.vertex(w[k]), alphabet.vertex(w[k + 1])
            if va != vb and g.adjacent(va, vb):
                swapped = w[:k] + (w[k + 1], w[k]) + w[k + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    stack.append(swapped)
    return min(seen)
