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
* One move: a letter x that can be shuffled to the front of a reduced
  normal form goes to the back, and the word is renormalised.  It spells
  the conjugate by x, and it is shorter exactly when x^-1 can be shuffled to
  the back, so a reduced word is cyclically reduced exactly when no move
  shortens it.  Cyclic reduction takes shortening moves until none is left.
* Element sweep: a prefix of a normal form is a normal form, so every
  element of length k is a normal form u of length k-1 followed by one
  letter x.  The word u + (x,) is a normal form exactly when x's backward
  scan to its last blocker passes only letters below x and that blocker is
  not x^-1; each element is made once, with no copy and no dedupe set.
* Class count, layer by layer: a normal form of length k that a move
  shortens lies in a class of smaller minimal length, counted at an earlier
  layer.  Any other starts a class of minimal length k unless this layer's
  orbits already hold it.  Its orbit under moves is the set of cyclically
  reduced normal forms of the class (Servatius; Crisp, Godelle and Wiest),
  and its least member, ``min(conjugacy_class_words(g, w))``, is the least
  minimal word of the class, a canonical key.
* Both enumerations refuse more than ``ORACLE_MAX_LENGTH`` letters and more
  than ``ORACLE_MAX_WORDS`` elements in the ball, before the work outgrows a
  desk.  The orbits of one length are subsets of that layer, so the ball's
  bound also bounds the class count.

It exists to validate the automata pipeline, so it shares no code with it.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import SimpleGraph

ORACLE_MAX_LENGTH = 10
# Elements of the ball that one enumeration may hold; a layer's class orbits
# are subsets of that layer, so this bounds them too.
ORACLE_MAX_WORDS = 1_000_000


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


def normal_form(g: SimpleGraph, word) -> tuple:
    """Shortlex normal form of the group element spelled by ``word``."""
    return tuple(_shortlex(_blockers(g), word))


def is_geodesic(g: SimpleGraph, word) -> bool:
    return len(normal_form(g, word)) == len(word)


# ---------------------------------------------------------------------------
# conjugacy machinery
# ---------------------------------------------------------------------------

def _moves(blockers, u):
    """Normal forms reached from the reduced normal form ``u`` by one move.

    A move takes a letter x that can be shuffled to the front of u, at
    position p, to the back: the new normal form is u[:p] with the letters of
    u[p+1:] and then x inserted one at a time; at p = 0 the greedy order of
    u[1:] is already its own.  The result spells x^-1 u x, and it is shorter
    than u exactly when x^-1 can be shuffled to the back, where x cancels it.
    A letter that only its own vertex blocks commutes with the rest of u, so
    its move changes nothing and is skipped, and the scan stops once the
    blockers read cover the vertices of u.
    """
    present = 0  # the vertices of u
    for x in u:
        present |= 1 << (x >> 1)
    seen = 0  # OR of the blockers of u[:p]
    for p, x in enumerate(u):
        v = x >> 1
        stop = blockers[v]
        if not seen >> v & 1 and stop & present != 1 << v:
            if p:
                out = list(u[:p])
                for y in u[p + 1:]:
                    _insert(blockers, out, y)
            else:
                out = list(u[1:])
            _insert(blockers, out, x)
            yield tuple(out)
        seen |= stop
        if seen & present == present:
            break  # no later letter is front-movable


def _orbit(blockers, start):
    """The orbit of the normal form ``start`` under moves, or None if a move shortens it.

    A reduced word is cyclically reduced exactly when no move shortens it.
    From a cyclically reduced start, the moves reach the normal form of
    every minimal-length word in the class, i.e. of every rotation of every
    shuffle (Servatius), since each shuffle starts with a front-movable
    letter; none of them is shorter.
    """
    orbit = {start}
    stack = [start]
    while stack:
        for moved in _moves(blockers, stack.pop()):
            if len(moved) < len(start):
                return None
            if moved not in orbit:
                orbit.add(moved)
                stack.append(moved)
    return orbit


def cyclically_reduce(g: SimpleGraph, word) -> tuple:
    """A minimal-length conjugate of ``word``, in normal form.

    Reduce the word, then take shortening moves until none is left.  A
    reduced word that no move shortens is cyclically reduced, hence of
    minimal length in its conjugacy class.
    """
    blockers = _blockers(g)
    u = tuple(_shortlex(blockers, word))
    while (shorter := next((m for m in _moves(blockers, u) if len(m) < len(u)), None)) is not None:
        u = shorter
    return u


def is_conjugacy_geodesic(g: SimpleGraph, word) -> bool:
    return len(cyclically_reduce(g, word)) == len(word)


def conjugacy_class_words(g: SimpleGraph, word) -> set:
    """Normal forms of the minimal-length words in the conjugacy class of ``word``."""
    return _orbit(_blockers(g), cyclically_reduce(g, word))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_elements(g: SimpleGraph, max_length: int) -> list[list]:
    """Normal forms of all group elements of length <= max_length, by length.

    A prefix of a normal form is a normal form, so each element of length k
    is u + (x,) for one normal form u of length k-1 and one letter x.  That
    word is a normal form exactly when x's backward scan to its last blocker
    passes only letters below x, where the insertion would leave it, and the
    blocker is not x^-1, which it would cancel.  Each element is thus made
    once, and each layer is a duplicate-free list in lexicographic order.
    """
    _check_cap(max_length)
    blockers = _blockers(g)
    letters = range(g.alphabet().size)
    by_length = [[()]]
    held = 1
    for length in range(1, max_length + 1):
        layer = []
        for u in by_length[-1]:
            for x in letters:
                stop = blockers[x >> 1]
                for y in reversed(u):
                    if stop >> (y >> 1) & 1:
                        if y != x ^ 1:
                            layer.append(u + (x,))
                        break
                    if y > x:
                        break
                else:
                    layer.append(u + (x,))
            if held + len(layer) > ORACLE_MAX_WORDS:
                raise OracleBound(f"oracle enumeration capped at {ORACLE_MAX_WORDS} words, "
                                  f"exceeded by the ball of radius {length}")
        held += len(layer)
        by_length.append(layer)
    return by_length


def element_counts(g: SimpleGraph, max_length: int) -> list[int]:
    return [len(layer) for layer in enumerate_elements(g, max_length)]


def enumerate_classes(g: SimpleGraph, max_length: int) -> list[int]:
    """Number of conjugacy classes whose minimal length is k, for k <= max_length.

    Each layer of the ball is walked once.  A normal form that a move
    shortens has a shorter conjugate, so its class was counted at an earlier
    layer.  Any other is cyclically reduced: unless ``seen`` holds it, it
    starts a class of minimal length k, whose orbit holds every cyclically
    reduced normal form of the class.  Orbits of one length are subsets of
    that layer, so the ball's word bound also bounds ``seen``.
    """
    blockers = _blockers(g)
    counts = []
    for layer in enumerate_elements(g, max_length):
        seen = set()
        count = 0
        for w in layer:
            if w not in seen and (orbit := _orbit(blockers, w)) is not None:
                count += 1
                seen |= orbit
        counts.append(count)
    return counts
