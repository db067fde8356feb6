"""Brute-force ground truth at desk scale, independent of the automata.

Words are tuples of letters; letter x belongs to vertex ``x >> 1`` and
``x ^ 1`` is its inverse.  For each vertex v the *blocker mask* holds v and
the non-neighbours of v: the vertices whose letters a letter of v cannot be
shuffled past.  It is computed once per graph.

* Normal forms by stack insertion: each new letter scans the normal form
  built so far backwards to the last letter that blocks it.  It cancels
  that letter if it is its inverse, and otherwise goes in front of the
  first greater letter after it.  The word stays the shortlex least of its
  shuffle class, i.e. the greedy order that always emits the least letter
  whose vertex no earlier letter blocks.
* Cyclic reduction by peeling: a reduced word is cyclically reduced exactly
  when no letter x that can be shuffled to the front has an inverse that can
  be shuffled to the back; such pairs are removed until none is left.
* Still brute force: conjugacy classes are the closure of one minimal-length
  word under rotations and commuting transpositions, and the enumerations
  sweep every element up to a capped length.

It exists to validate the automata pipeline, so it shares no code with it.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import SimpleGraph

ORACLE_MAX_LENGTH = 8


class OracleBound(ValueError):
    """Requested enumeration exceeds the hard desk-scale cap."""


def _check_cap(n: int):
    if n > ORACLE_MAX_LENGTH:
        raise OracleBound(f"oracle enumeration capped at length {ORACLE_MAX_LENGTH}, got {n}")
    if n < 0:
        raise OracleBound("length bound must be nonnegative")


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _blockers(g: SimpleGraph) -> tuple[int, ...]:
    """Per vertex v, the bitmask of v and the non-neighbours of v."""
    masks = [(1 << len(g.vertices)) - 1] * len(g.vertices)
    for i, j in g.edges:
        masks[i] &= ~(1 << j)
        masks[j] &= ~(1 << i)
    return tuple(masks)


def _shortlex(blockers, word) -> list:
    """Shortlex normal form of ``word``, built one letter at a time.

    The list ``out`` is always in normal form.  A new letter x scans ``out``
    backwards to the last letter that blocks it.  If that letter is x^-1,
    the two cancel.  Otherwise x joins the piece of ``out`` after that letter,
    all of which commutes with x, and goes in front of the first letter
    there that is greater than x: greedily emitting the least letter whose
    vertex no earlier letter blocks yields ``out`` with x exactly there.
    Deleting x^-1 likewise leaves the rest of ``out`` in greedy order, since
    no later letter waits for it.
    """
    out = []
    for x in word:
        stop = blockers[x >> 1]
        k = len(out) - 1
        while k >= 0 and not stop >> (out[k] >> 1) & 1:
            k -= 1
        if k >= 0 and out[k] == x ^ 1:
            del out[k]
            continue
        k += 1
        while k < len(out) and out[k] < x:
            k += 1
        out.insert(k, x)
    return out


def _front_movable(blockers, letters) -> dict:
    """Position of each letter that can be shuffled to the front of ``letters``."""
    movable = {}
    seen = 0  # OR of the blockers of the letters scanned so far
    for p, x in enumerate(letters):
        if not seen >> (x >> 1) & 1:
            movable[x] = p
        seen |= blockers[x >> 1]
    return movable


def normal_form(g: SimpleGraph, word) -> tuple:
    """Shortlex normal form of the group element spelled by ``word``."""
    return tuple(_shortlex(_blockers(g), word))


def is_geodesic(g: SimpleGraph, word) -> bool:
    return len(normal_form(g, word)) == len(word)


# ---------------------------------------------------------------------------
# conjugacy machinery
# ---------------------------------------------------------------------------

def _rotations(word):
    return [word[k:] + word[:k] for k in range(len(word))] or [word]


def cyclically_reduce(g: SimpleGraph, word) -> tuple:
    """A minimal-length conjugate of ``word``, in normal form.

    Reduce the word, then peel: while some front-movable letter x has a
    back-movable inverse, the word is x u x^-1 up to shuffles and conjugates
    to u, so both letters go.  A reduced word with no such pair is
    cyclically reduced, hence of minimal length in its conjugacy class.
    """
    blockers = _blockers(g)
    letters = _shortlex(blockers, word)
    while True:
        back = _front_movable(blockers, letters[::-1])
        for x, p in _front_movable(blockers, letters).items():
            if x ^ 1 in back:
                # the inverse sits after x, since it blocks x
                del letters[len(letters) - 1 - back[x ^ 1]], letters[p]
                break
        else:
            return tuple(_shortlex(blockers, letters))


def is_conjugacy_geodesic(g: SimpleGraph, word) -> bool:
    return len(cyclically_reduce(g, word)) == len(word)


def conjugacy_class_words(g: SimpleGraph, word, _reduced=False) -> frozenset:
    """All minimal-length words in the conjugacy class of ``word``.

    Closure of one cyclically reduced representative under single-letter
    rotation and single transposition of commuting letters; conjugate minimal
    words are connected by interleaved rotations and shuffles.  ``_reduced``
    says that ``word`` is already cyclically reduced.
    """
    blockers = _blockers(g)
    start = tuple(word) if _reduced else cyclically_reduce(g, word)
    if not start:
        return frozenset({start})
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        nxt = w[1:] + w[:1]
        if nxt not in seen:
            seen.add(nxt)
            stack.append(nxt)
        for k in range(len(w) - 1):
            a, b = w[k], w[k + 1]
            if not blockers[a >> 1] >> (b >> 1) & 1:
                swapped = w[:k] + (b, a) + w[k + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    stack.append(swapped)
    return frozenset(seen)


def conjugacy_key(g: SimpleGraph, word, _cache=None) -> tuple:
    """Canonical representative (lex-least minimal word) of the class."""
    start = cyclically_reduce(g, word)
    if _cache is not None and start in _cache:
        return _cache[start]
    closure = conjugacy_class_words(g, start, _reduced=True)
    key = min(closure)
    if _cache is not None:
        for member in closure:
            _cache[member] = key
    return key


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_elements(g: SimpleGraph, max_length: int) -> list[set]:
    """Normal forms of all group elements of length <= max_length, by length.

    Grown by appending letters to shorter normal forms; every element of
    length k extends one of length k-1, so the sweep is exhaustive.
    """
    _check_cap(max_length)
    size = g.alphabet().size
    by_length = [{()}]
    known = {()}
    frontier = [()]
    for length in range(1, max_length + 1):
        new = set()
        for w in frontier:
            for x in range(size):
                nf = normal_form(g, w + (x,))
                if len(nf) == length and nf not in known:
                    known.add(nf)
                    new.add(nf)
        by_length.append(new)
        frontier = sorted(new)
    return by_length


def element_counts(g: SimpleGraph, max_length: int) -> list[int]:
    return [len(layer) for layer in enumerate_elements(g, max_length)]


def enumerate_classes(g: SimpleGraph, max_length: int) -> list[int]:
    """Number of conjugacy classes whose minimal length is k, for k <= max_length."""
    _check_cap(max_length)
    counts = [0] * (max_length + 1)
    cache = {}
    seen_keys = set()
    for layer in enumerate_elements(g, max_length):
        for w in layer:
            key = conjugacy_key(g, w, cache)
            if key not in seen_keys:
                seen_keys.add(key)
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
