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
* Element sweep: every element of length k is one of length k-1 times a
  letter.  A normal form is a fixed point of the insertion, so each
  extension costs one insertion into a copy of its normal form.
* Class count, layer by layer: a normal form of length k that admits a peel
  lies in a class of smaller minimal length, counted at an earlier layer.
  Any other starts a class of minimal length k unless this layer's closures
  already hold it; its closure under rotations and commuting transpositions
  (brute force) holds every word of length k in the class, and its least
  word, ``min(conjugacy_class_words(g, w))``, is a canonical key.
* Both enumerations refuse more than ``ORACLE_MAX_LENGTH`` letters and more
  than ``ORACLE_MAX_WORDS`` words held at once, before the work outgrows a
  desk.

It exists to validate the automata pipeline, so it shares no code with it.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import SimpleGraph

ORACLE_MAX_LENGTH = 10
# Words one enumeration may hold: the ball, or one layer's class closures.
ORACLE_MAX_WORDS = 1_000_000


class OracleBound(ValueError):
    """Requested enumeration exceeds the hard desk-scale cap."""


def _check_cap(n: int):
    if n > ORACLE_MAX_LENGTH:
        raise OracleBound(f"oracle enumeration capped at length {ORACLE_MAX_LENGTH}, got {n}")
    if n < 0:
        raise OracleBound("length bound must be nonnegative")


def _check_words(n_words: int, what: str):
    if n_words > ORACLE_MAX_WORDS:
        raise OracleBound(f"oracle enumeration capped at {ORACLE_MAX_WORDS} words, exceeded by {what}")


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


def _insert(blockers, out: list, x: int):
    """Multiply the normal form ``out`` by the letter x, in place.

    x scans ``out`` backwards to the last letter that blocks it.  If that
    letter is x^-1, the two cancel.  Otherwise x joins the piece of ``out``
    after that letter, all of which commutes with x, and goes in front of the
    first letter there that is greater than x: greedily emitting the least
    letter whose vertex no earlier letter blocks yields ``out`` with x exactly
    there.  Deleting x^-1 likewise leaves the rest of ``out`` in greedy order,
    since no later letter waits for it.
    """
    stop = blockers[x >> 1]
    k = len(out) - 1
    while k >= 0 and not stop >> (out[k] >> 1) & 1:
        k -= 1
    if k >= 0 and out[k] == x ^ 1:
        del out[k]
        return
    k += 1
    while k < len(out) and out[k] < x:
        k += 1
    out.insert(k, x)


def _shortlex(blockers, word) -> list:
    """Shortlex normal form of ``word``, built one letter at a time."""
    out = []
    for x in word:
        _insert(blockers, out, x)
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

def _peel(blockers, letters):
    """Positions (i, j), i < j, of a peelable pair in the reduced ``letters``.

    The pair is a front-movable letter x and a back-movable x^-1: the word
    is x u x^-1 up to shuffles and conjugates to u.  None when there is no
    such pair, i.e. when the word is cyclically reduced.
    """
    back = _front_movable(blockers, letters[::-1])
    for x, p in _front_movable(blockers, letters).items():
        if x ^ 1 in back:
            # the inverse sits after x, since it blocks x
            return p, len(letters) - 1 - back[x ^ 1]
    return None


def cyclically_reduce(g: SimpleGraph, word) -> tuple:
    """A minimal-length conjugate of ``word``, in normal form.

    Reduce the word, then peel pairs until none is left.  A reduced word
    with no peelable pair is cyclically reduced, hence of minimal length in
    its conjugacy class.
    """
    blockers = _blockers(g)
    letters = _shortlex(blockers, word)
    while (pair := _peel(blockers, letters)) is not None:
        i, j = pair
        del letters[j], letters[i]
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


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_elements(g: SimpleGraph, max_length: int) -> list[set]:
    """Normal forms of all group elements of length <= max_length, by length.

    Every element of length k is one of length k-1 times a letter, so
    extending layer k-1 by every letter is exhaustive.  Each extension is one
    insertion into a copy of a normal form; it has length k exactly when it
    is new, since an insertion that cancels shortens the word.
    """
    _check_cap(max_length)
    blockers = _blockers(g)
    letters = range(g.alphabet().size)
    by_length = [{()}]
    held = 1
    for length in range(1, max_length + 1):
        layer = set()
        for w in by_length[-1]:
            for x in letters:
                out = list(w)
                _insert(blockers, out, x)
                if len(out) == length:
                    layer.add(tuple(out))
            _check_words(held + len(layer), f"the ball of radius {length}")
        held += len(layer)
        by_length.append(layer)
    return by_length


def element_counts(g: SimpleGraph, max_length: int) -> list[int]:
    return [len(layer) for layer in enumerate_elements(g, max_length)]


def enumerate_classes(g: SimpleGraph, max_length: int) -> list[int]:
    """Number of conjugacy classes whose minimal length is k, for k <= max_length.

    Each layer of the ball is walked once.  A normal form with a peelable
    pair has a shorter conjugate, so its class was counted at an earlier
    layer.  Any other is cyclically reduced: unless ``seen`` holds it, it
    starts a class of minimal length k, whose closure holds every word of
    length k in the class.  A cyclically reduced word of length k lies in no
    closure of a shorter class, so ``seen`` holds this layer's closures alone.
    """
    blockers = _blockers(g)
    counts = []
    for length, layer in enumerate(enumerate_elements(g, max_length)):
        seen = set()
        count = 0
        for w in layer:
            if w in seen or _peel(blockers, w) is not None:
                continue
            count += 1
            seen |= conjugacy_class_words(g, w, _reduced=True)
            _check_words(len(seen), f"the class closures of length {length}")
        counts.append(count)
    return counts

