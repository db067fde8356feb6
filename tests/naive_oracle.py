"""Naive reference definitions for the oracle's normal forms and conjugacy keys.

Exhaustive cancellation, a quadratic greedy extraction and rotate-and-
renormalize cyclic reduction, written straight from the definitions with
``g.alphabet()`` and ``g.adjacent()``.  The element and class counts read
every word up to a length.  The tests compare the oracle's bitmask routines
and its enumerations against these on small graphs.

The finite-language helpers at the end, least rotation representatives and
primitive words of an explicit word set, are the references for the
counting operators ``rho`` and ``neck``.
"""

from __future__ import annotations

import itertools


def _cancel_once(g, word):
    """Remove one cancelling pair x ... x^-1 whose gap commutes with x."""
    alphabet = g.alphabet()
    for i, x in enumerate(word):
        v = alphabet.vertex(x)
        inverse = x ^ 1
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


def rotation_swap_closure(g, word) -> set:
    """Closure of ``word`` under rotations and swaps of adjacent commuting letters.

    For a cyclically reduced word it holds every minimal-length word of the
    conjugacy class.
    """
    alphabet = g.alphabet()
    start = tuple(word)
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
    return seen


def conjugacy_key(g, word) -> tuple:
    """Lex-least word of the closure of the naive cyclic reduction."""
    return min(rotation_swap_closure(g, cyclically_reduce(g, word)))


def _normal_forms(g, max_length) -> set:
    """Normal forms of every word up to ``max_length``."""
    return {
        normal_form(g, word)
        for length in range(max_length + 1)
        for word in itertools.product(range(g.alphabet().size), repeat=length)
    }


def element_counts(g, max_length) -> list[int]:
    """Distinct normal forms of every word up to ``max_length``, by length."""
    counts = [0] * (max_length + 1)
    for nf in _normal_forms(g, max_length):
        counts[len(nf)] += 1
    return counts


def class_counts(g, max_length) -> list[int]:
    """Distinct conjugacy keys of every word up to ``max_length``, by key length."""
    counts = [0] * (max_length + 1)
    for key in {conjugacy_key(g, nf) for nf in _normal_forms(g, max_length)}:
        counts[len(key)] += 1
    return counts


# ---------------------------------------------------------------------------
# finite-language helpers
# ---------------------------------------------------------------------------

def cycrep_bruteforce(words) -> set:
    """Lexicographically least rotation of each rotation class.

    The input must be closed under rotation.
    """
    words = {tuple(w) for w in words}
    for w in words:
        for r in _rotations(w):
            if r not in words:
                raise ValueError(f"input not closed under rotation: missing {r} from {w}")
    return {min(_rotations(w)) for w in words}


def prim_bruteforce(words) -> set:
    """Words that are not proper powers of shorter members."""
    words = {tuple(w) for w in words}
    if () in words:
        raise ValueError("primitive-word computation requires the empty word excluded")
    out = set()
    for w in words:
        n = len(w)
        is_power = False
        for d in range(1, n):
            if n % d == 0 and w[:d] in words and w[:d] * (n // d) == w:
                is_power = True
                break
        if not is_power:
            out.add(w)
    return out
