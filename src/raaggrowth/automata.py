"""Complete deterministic finite automata with exact growth-series extraction.

Every language in the pipeline is carried by a complete DFA over an
``OrderedAlphabet`` (letters are ints ``0..size-1``).  Automata are immutable;
all operations return fresh values.  ``intersect``, ``union``, ``concat`` and
``cyc_perm`` return minimal automata, so that repeated products and closures
stay tractable; ``complement_lang`` only flips acceptance, which keeps a
minimal automaton minimal.  ``_product`` collapses the pairs that hold a
verdict-fixing sink into one constant state, so what is left for Hopcroft
to merge is small, and returns the product unminimized.  ``_fold`` folds
products, minimizes whenever the fold has doubled, and returns it minimal.

Minimized automata are renumbered canonically (breadth-first from the initial
state in letter order), so two automata accept the same language exactly when
their encodings coincide.

``_pullback`` reads an automaton through a letter-to-letter map.  Lemma: let
h map the letters of X to those of Y, and let A be a complete DFA over Y.
The DFA over X with A's states, initial state and accept set, whose row of
q reads delta_A(q, h(x)) under x, accepts the inverse image h^-1(L(A)).
Inverse images commute with complement (the same rows, acceptance flipped),
with products (the pullback of A x B is, pair for pair, the product of the
pullbacks) and with cyclic closure: h maps a rotation v u of u v to the
rotation h(v) h(u) of h(u v), and h keeps lengths, so a rotation of h(w)
cuts h(w) between two letters and is h of a rotation of w.  A language built
by these operations from automata that read a letter only by its class in
h is therefore the pullback of the same construction on the classes, and
``minimize``, canonical, gives the pullback the encoding of the direct
construction over X.

``growth_series`` produces the generating function counting accepted words by
length, as an exact integer rational function.  It works for any coefficient
size: counts are computed with Python big ints, and every returned fraction is
*proved* by one certificate.  The trim automaton is first lumped to its
coarsest count-preserving quotient B (forward bisimulation: states are merged
while they agree on acceptance and on the multiset of blocks they move to);
stability of that partition, A P = P B, makes the quotient's count sequence
equal to the automaton's.  On the n-state quotient the first exact linear
dependency among the vectors v, Bv, B^2 v, ... (the annihilator of the
accept vector v, found by fraction-free elimination) is a recurrence of the
counts; it gives the denominator, of degree m <= n, and the numerator is
read off the first m counts.

The lumping refines the raw rows of every state, with no trimming pass, and
then cuts the quotient to its trim blocks.  Lemma: that is the trim part's
coarsest quotient.  A signature depends only on successors, so on the
reachable states the refinement is that of the reachable part alone.  Every
state moves once per letter, so the dead states, which move only to dead
states, share every signature and one block, and at the fixed point that
block holds no live state (a block's states have equal counts).  A live
state moves to it once per letter of a colour not leading to a live state,
a number fixed by its live moves.  So the fixed point is stable on the trim
states, and the trim part's coarsest partition plus the dead block is stable
on the reachable ones: each is at least as coarse as the other.

Counting never needs a minimal automaton.  Lemma: on the trim part of a
complete DFA, language-equivalent states agree on acceptance and move, letter
by letter, to language-equivalent states.  So the Myhill-Nerode partition is
lumpable for every colour below, and the coarsest lumpable partition, which
contains every lumpable one, is at least as coarse.  A partition coarser than
Myhill-Nerode is lumpable exactly when its image on the minimal automaton is,
so the quotient of an unminimized DFA is isomorphic to the quotient of its
minimization: the counts are the same, and ``RationalFunction.make`` returns
the same reduced fraction.  The products that are only counted
(``languages._divided_fold`` and the inclusion-exclusion chain) therefore
reach ``growth_series`` and ``vertex_quotient`` without a Hopcroft run.

The lumping works on coloured transitions: ``vertex_quotient`` gives each
vertex's two letters their own colour and splits blocks by the multiset of
successor blocks under each colour separately.  The partition is then stable
for every colour, A_v P = P B_v, so for every sum of colours, and one quotient
per automaton serves all its letter restrictions: ``restricted_growth_series``
sums the colours of a vertex subset and certifies that, without lumping again.

A signed sum of growth series, sum_i s_i F_i with F_i that of the DFA A_i,
takes one certificate too (``_signed_growth_series``).  Lemma: the disjoint
union of the A_i, with matrix A = diag(A_i), accept vector v and start
vector e = sum_i s_i e_i (e_i the indicator of A_i's initial state), counts
e A^k v = sum_i s_i [z^k] F_i.  Stability A P = P B does not depend on e,
so the union lumps like any automaton, with start weights e P.  The
annihilator of the quotient's accept vector v', sum_i c_i B^i v' = 0, gives
sum_i c_i e P B^(k+i) v' = 0 for every e, so it proves the whole sum.

Counting may also divide out a sign swap (``_sign_quotient``).  Let sigma_v
swap the letters 2v and 2v + 1 (x_v -> x_v^-1), and let s be a permutation
of a DFA's reachable states with s(delta(q, x)) = delta(s(q), sigma_v x) that
keeps acceptance.  Lemma: the orbits {q, s(q)} are lumpable for one colour
and for every vertex colour (ordinary lumpability, Buchholz, TCS 2008;
symmetry reduction, Emerson and Sistla, FMSD 1996).  s carries the moves of
q under the letters of a vertex u onto the moves of s(q) under their swaps,
which are the letters of u again, so q and s(q) move to the same multiset
of orbits under each colour, and they agree on acceptance.  The DFA on the
representatives, each row with its targets replaced by their
representatives, has the matrices B_c of that partition, so it counts as
the DFA does, colour by colour.  One quotient of a model serves all its
pullbacks (``languages._divided_factors``).  Lemma: let a letter map h send
the letters of v, and only those, to those of a model vertex m, in order, so
h sigma_v = sigma_m h.  The model's s under sigma_m is then an automorphism
of the pullback under sigma_v, and the pullback reads the two letters of
every vertex but v alike if the model does so for every vertex but m.  On the
states the pullback reaches, its orbits and representatives are the model's,
so the pullback of the model's quotient is the quotient of the pullback.

Lemma (products): let each factor A_v of a product meet the three
conditions ``_sign_quotient`` checks for its own vertex v: sigma_v induces
s_v, s_v keeps acceptance, and A_v reads the two letters of every other
vertex alike.  Then sigma_v acts on factor v alone: s_v on that coordinate
and the identity on the others is an automorphism of the product under
sigma_v, since the other factors read sigma_v x as x.  These automorphisms
commute and keep every verdict of every factor, so they keep acceptance by
any boolean combination of the verdicts.  Their orbits are tuples of
orbits, lumpable for every vertex colour as above, and the representative
DFA of that partition is the product of the quotients.  A product of
quotients therefore counts as the product of the factors, colour by colour;
minimizing it, collapsing its constant pairs or complementing it keeps that
(the Myhill-Nerode lemma above).  So ``_product``, ``vertex_quotient`` and
``_signed_growth_series`` see the counts of the undivided product.  A factor
that reads the letters of another vertex apart, such as the whole geodesic
acceptor, is refused: its swap would act on two factors at once.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import and_, or_

from .graphs import OrderedAlphabet
from .series import InvariantError, RationalFunction


class AlphabetMismatch(ValueError):
    """Operands of a language operation live over different alphabets."""


def _require_same_alphabet(a: "Dfa", b: "Dfa"):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("automata are defined over different alphabets")


class Dfa:
    """Complete DFA: total transition table, one initial state, accept set."""

    __slots__ = ("alphabet", "n_states", "transitions", "initial", "accepting")

    def __init__(self, alphabet: OrderedAlphabet, n_states: int, transitions, initial: int, accepting):
        self.alphabet = alphabet
        self.n_states = n_states
        self.transitions = tuple(transitions)  # row-major: state * size + letter
        self.initial = initial
        self.accepting = frozenset(accepting)
        if n_states < 1:
            raise ValueError("a complete DFA needs at least its initial state")
        # one C-level pass over every state named; bool is an int subclass, and floats are not rounded
        if not {int}.issuperset(map(type, chain((initial,), self.transitions, self.accepting))):
            raise ValueError("states must be ints")
        if len(self.transitions) != n_states * alphabet.size:
            raise ValueError("transition table size does not match state count")
        if not 0 <= initial < n_states:
            raise ValueError("initial state out of range")
        if self.transitions and (min(self.transitions) < 0 or max(self.transitions) >= n_states):
            raise ValueError("transition target out of range")
        if self.accepting and (min(self.accepting) < 0 or max(self.accepting) >= n_states):
            raise ValueError("accepting state out of range")

    def accepts(self, word) -> bool:
        q = self.initial
        size = self.alphabet.size
        for x in word:
            q = self.transitions[q * size + x]
        return q in self.accepting

    def encode(self) -> tuple:
        """Hashable identity; canonical after minimize()."""
        return (self.alphabet.labels, self.n_states, self.transitions, self.initial,
                tuple(sorted(self.accepting)))


# ---------------------------------------------------------------------------
# elementary automata
# ---------------------------------------------------------------------------

def all_words_dfa(alphabet: OrderedAlphabet) -> Dfa:
    return Dfa(alphabet, 1, [0] * alphabet.size, 0, {0})


def empty_language_dfa(alphabet: OrderedAlphabet) -> Dfa:
    return Dfa(alphabet, 1, [0] * alphabet.size, 0, set())


def single_word_dfa(alphabet: OrderedAlphabet, word) -> Dfa:
    """DFA accepting exactly one word."""
    word = tuple(word)
    size = alphabet.size
    n = len(word) + 2  # chain plus sink
    sink = n - 1
    table = [sink] * (n * size)
    for i, x in enumerate(word):
        table[i * size + x] = i + 1
    return minimize(Dfa(alphabet, n, table, 0, {len(word)}))


# ---------------------------------------------------------------------------
# minimization and canonical form
# ---------------------------------------------------------------------------

def minimize(dfa: Dfa) -> Dfa:
    """Unique minimal complete DFA with canonical breadth-first numbering.

    Hopcroft's partition refinement runs on all states, reachable or not:
    the coarsest congruence separating accepting from rejecting states is
    language equivalence, and restricted to the reachable states it is the
    Myhill-Nerode quotient.  The breadth-first renumbering from the initial
    block then keeps exactly the reachable blocks.
    """
    n = dfa.n_states
    size = dfa.alphabet.size
    transitions = dfa.transitions

    # Hopcroft partition refinement.  A DFA lists each state once among the
    # predecessors of its successor under a letter, so a splitter's preimage
    # under a letter has no repeats and is grouped by block straight away.
    # Under any one letter most states have no predecessor (85% of them in the
    # largest union of the C6 conjugacy-geodesic build); they share the empty
    # tuple instead of each holding an empty list.
    incoming = []
    for x in range(size):
        predecessors = [()] * n
        for p, t in enumerate(transitions[x::size]):
            if predecessors[t]:
                predecessors[t].append(p)
            else:
                predecessors[t] = [p]
        incoming.append(predecessors)

    accepting = dfa.accepting
    rest = set(range(n)) - accepting
    partition = [block for block in (set(accepting), rest) if block]
    block_of = [0] * n
    for b, block in enumerate(partition):
        for q in block:
            block_of[q] = b
    # refining by one of the two initial blocks refines by the other as well
    smallest = min(range(len(partition)), key=lambda b: len(partition[b]))
    work = [smallest]
    in_work = [False] * len(partition)
    in_work[smallest] = True

    # once every block is a singleton no splitter can cut a block in two
    while work and len(partition) < n:
        a = work.pop()
        in_work[a] = False
        splitter = list(partition[a])
        for predecessors in incoming:
            touched = {}
            for q in splitter:
                for p in predecessors[q]:
                    b = block_of[p]
                    if b in touched:
                        touched[b].append(p)
                    else:
                        touched[b] = [p]
            for b, inside in touched.items():
                block = partition[b]
                if len(inside) == len(block):
                    continue
                block.difference_update(inside)
                new_index = len(partition)
                partition.append(set(inside))
                for p in inside:
                    block_of[p] = new_index
                in_work.append(False)
                # a waiting block needs both halves queued, otherwise the smaller
                queued = new_index if in_work[b] or len(inside) <= len(block) else b
                work.append(queued)
                in_work[queued] = True

    # canonical BFS renumbering of the blocks reachable from the initial one
    number = [-1] * len(partition)
    start = block_of[dfa.initial]
    number[start] = 0
    order = [start]
    table = []
    accepting_blocks = []
    for b in order:
        q = next(iter(partition[b]))
        if q in accepting:
            accepting_blocks.append(number[b])
        for t in transitions[q * size:(q + 1) * size]:
            t = block_of[t]
            if number[t] < 0:
                number[t] = len(order)
                order.append(t)
            table.append(number[t])
    return Dfa(dfa.alphabet, len(order), table, 0, accepting_blocks)


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality via canonical minimal forms."""
    _require_same_alphabet(a, b)
    return minimize(a).encode() == minimize(b).encode()


# ---------------------------------------------------------------------------
# boolean operations
# ---------------------------------------------------------------------------

def _sinks(dfa: Dfa):
    """The states whose whole row points to themselves."""
    size, transitions = dfa.alphabet.size, dfa.transitions
    return [q for q in range(dfa.n_states) if transitions[q * size:(q + 1) * size].count(q) == size]


def _product(a: Dfa, b: Dfa, keep) -> Dfa:
    """Reachable product of a and b, accepting where ``keep`` of their verdicts holds.

    A sink whose verdict under ``keep`` ignores the other operand (a rejecting
    sink under ``and_``, an accepting one under ``or_``) fixes the verdict of
    every pair holding it for good.  All pairs with the same fixed verdict are
    one constant state, X* or the empty language.  Most states that Hopcroft
    would merge in the pipeline's products are such pairs, but the result is
    not minimized: ``intersect`` and ``union`` minimize it, ``_fold`` (in
    ``cyc_perm`` and ``languages._acceptor``) does once the fold has doubled
    and at the end, and the counted ``languages._divided_fold`` and
    inclusion-exclusion chain never do.
    """
    _require_same_alphabet(a, b)
    size = a.alphabet.size
    rows_a, rows_b = a.transitions, b.transitions
    fixed_a = {p: keep(p in a.accepting, True) for p in _sinks(a)
               if keep(p in a.accepting, True) == keep(p in a.accepting, False)}
    fixed_b = {q: keep(True, q in b.accepting) for q in _sinks(b)
               if keep(True, q in b.accepting) == keep(False, q in b.accepting)}
    index = {}
    order = []
    constant = {}  # fixed verdict -> its state

    def number(pair) -> int:
        verdict = fixed_a.get(pair[0], fixed_b.get(pair[1]))
        i = constant.get(verdict)
        if i is None:
            i = len(order)
            order.append(pair)
            if verdict is not None:
                constant[verdict] = i
        index[pair] = i
        return i

    number((a.initial, b.initial))
    table = []
    for p, q in order:
        for t in zip(rows_a[p * size:(p + 1) * size], rows_b[q * size:(q + 1) * size]):
            i = index.get(t)
            table.append(number(t) if i is None else i)
    accepting = {
        i for i, (p, q) in enumerate(order) if keep(p in a.accepting, q in b.accepting)
    }
    return Dfa(a.alphabet, len(order), table, 0, accepting)


def intersect(a: Dfa, b: Dfa) -> Dfa:
    return minimize(_product(a, b, and_))


def union(a: Dfa, b: Dfa) -> Dfa:
    return minimize(_product(a, b, or_))


def complement_lang(a: Dfa) -> Dfa:
    """Complement of L(a), by flipping acceptance only.

    The complement of a minimal DFA is minimal, and the breadth-first
    numbering does not depend on acceptance, so a canonical input gives a
    canonical output.  A non-minimal input gives a non-minimal output.
    """
    flipped = set(range(a.n_states)) - a.accepting
    return Dfa(a.alphabet, a.n_states, a.transitions, a.initial, flipped)


def _pullback(model: Dfa, alphabet: OrderedAlphabet, vertex_map) -> Dfa:
    """The inverse image of L(model) under the letter map 2u + e -> 2 vertex_map[u] + e.

    The result has the model's states, initial state and accept set, and the
    row of each state q is q's model row read through the letter map (lemma
    in the module docstring).  It is not minimized: states the map does not
    reach stay, and the numbering follows the model's.
    """
    size, rows = model.alphabet.size, model.transitions
    letters = [2 * w + e for w in vertex_map for e in (0, 1)]
    table = [rows[q + y] for q in range(0, model.n_states * size, size) for y in letters]
    return Dfa(alphabet, model.n_states, table, model.initial, model.accepting)


# ---------------------------------------------------------------------------
# concatenation
# ---------------------------------------------------------------------------

def concat(a: Dfa, b: Dfa) -> Dfa:
    """Language concatenation L(a)L(b), by a direct subset construction.

    A state is an a-state p with the set S of b-states reached by the words
    whose split point already lies behind; entering an accepting a-state adds
    ``b.initial`` to S, and the state accepts when S meets b's accept set.
    S keeps only b's live states, those from which b accepts some word: a dead
    state never makes a word accepted, and dropping it merges subsets that
    Hopcroft would merge.  S is a bitmask, and each step loops over its bits.
    """
    _require_same_alphabet(a, b)
    size = a.alphabet.size
    rows_a, rows_b = a.transitions, b.transitions
    live = _coreachable(_row(b), b.n_states, b.accepting)
    bit = [1 << q if q in live else 0 for q in range(b.n_states)]
    accepting_mask = sum(bit[q] for q in b.accepting)
    entries = [bit[b.initial] if p in a.accepting else 0 for p in range(a.n_states)]
    start = (a.initial, entries[a.initial])
    index = {start: 0}
    order = [start]
    table = []
    for p, subset in order:
        rows = []  # the row offsets of the b-states in the subset
        while subset:
            low = subset & -subset
            rows.append((low.bit_length() - 1) * size)
            subset ^= low
        p_row = p * size
        for x in range(size):
            p2 = rows_a[p_row + x]
            targets = entries[p2]
            for q_row in rows:
                targets |= bit[rows_b[q_row + x]]
            t = (p2, targets)
            i = index.get(t)
            if i is None:
                i = index[t] = len(order)
                order.append(t)
            table.append(i)
    accepting = [i for i, (_, subset) in enumerate(order) if subset & accepting_mask]
    return minimize(Dfa(a.alphabet, len(order), table, 0, accepting))


# ---------------------------------------------------------------------------
# cyclic permutation closure
# ---------------------------------------------------------------------------

def _row(dfa: Dfa):
    """The function from a state to its row of the transition table, in letter order."""
    size, transitions = dfa.alphabet.size, dfa.transitions
    return lambda q: transitions[q * size:(q + 1) * size]


def _reachable(targets, sources) -> set:
    """The states reached from ``sources``; ``targets(q)`` lists the successors of q."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for t in targets(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _coreachable(targets, n: int, accepting) -> set:
    """The states 0..n-1 from which some state of ``accepting`` is reached."""
    incoming = [[] for _ in range(n)]
    for q in range(n):
        for t in targets(q):
            incoming[t].append(q)
    return _reachable(incoming.__getitem__, accepting)


def _sign_quotient(dfa: Dfa, v: int) -> Dfa:
    """The orbit quotient of ``dfa`` under the letter swap 2v <-> 2v + 1 (x_v -> x_v^-1).

    One simultaneous breadth-first search from the initial state pairs each
    reachable state q, reached by a word w, with s(q), the state reached by
    the swapped word.  The result has the representatives min(q, s(q)) as
    states, and the row of each is its row in ``dfa`` with every target
    replaced by its representative.  Raises ``InvariantError`` when the swap
    does not induce an automorphism s, when s moves acceptance, or when the
    two letters of another vertex send some state to different targets; the
    product lemma in the module docstring needs all three.
    """
    size, transitions = dfa.alphabet.size, dfa.transitions
    swapped = [x ^ 1 if x >> 1 == v else x for x in range(size)]
    image = {dfa.initial: dfa.initial}
    order = [dfa.initial]
    for q in order:
        p = image[q]
        if (q in dfa.accepting) != (p in dfa.accepting):
            raise InvariantError(f"the sign swap of vertex {v} moves acceptance")
        row = transitions[q * size:(q + 1) * size]
        if any(a != b for u, (a, b) in enumerate(zip(row[::2], row[1::2])) if u != v):
            raise InvariantError(f"the letters of a vertex other than {v} move apart")
        for t, x in zip(row, swapped):
            s = transitions[p * size + x]
            if t not in image:
                image[t] = s
                order.append(t)
            elif image[t] != s:
                raise InvariantError(f"the sign swap of vertex {v} is not an automorphism")
    representatives = sorted({min(q, s) for q, s in image.items()})
    index = {q: i for i, q in enumerate(representatives)}
    block = {q: index[min(q, s)] for q, s in image.items()}
    table = [block[t] for q in representatives for t in transitions[q * size:(q + 1) * size]]
    return Dfa(dfa.alphabet, len(representatives), table, block[dfa.initial],
               [block[q] for q in representatives if q in dfa.accepting])


def cyc_perm(a: Dfa) -> Dfa:
    """Closure of L(a) under cyclic permutation: {vu : uv in L(a)}.

    Built as the union over states q of Suffixes(a, q) . Prefixes(a, q),
    where Suffixes re-roots the initial state at q and Prefixes re-roots
    acceptance at q.  Pieces with equal languages are merged up front.
    Both operands go to ``concat`` unminimized.  a is minimal, so the states
    reachable from q, the only ones ``concat`` explores on the left, are
    pairwise distinct already.  On the right ``concat`` keeps only the states
    that reach q, which is most of what minimizing Prefixes(a, q) would do:
    over the 437 pieces of the P4 conjugacy-geodesic acceptor a minimized one
    has 25.6 states on average, against 25.0 states that reach q.

    The pieces go into ``_fold`` from the first one, which is canonical.
    """
    a = minimize(a)
    coreach = _coreachable(_row(a), a.n_states, a.accepting)

    def distinct_pieces():
        seen = set()
        for q in range(a.n_states):
            if q not in coreach:
                continue  # Suffixes(a, q) is empty
            suffixes = Dfa(a.alphabet, a.n_states, a.transitions, q, a.accepting)
            prefixes = Dfa(a.alphabet, a.n_states, a.transitions, a.initial, {q})
            piece = concat(suffixes, prefixes)
            key = piece.encode()
            if key not in seen:
                seen.add(key)
                yield piece

    pieces = distinct_pieces()
    first = next(pieces, None)
    if first is None:
        return empty_language_dfa(a.alphabet)
    return _fold(first, pieces, or_)


def _fold(result: Dfa, pieces, keep) -> Dfa:
    """Fold ``pieces`` into the minimal ``result`` by ``_product`` under ``keep``, minimized.

    The fold is minimized when it has more than doubled since it was last
    minimized (``result`` counts as minimized) and at the end unless its last
    step did.  Most steps of the folds in ``cyc_perm`` and ``languages._acceptor``
    are minimal already, so Hopcroft after every step is wasted work, but a
    fold never minimized blows up: 7.9 GB on the 437 pieces of the P4
    conjugacy-geodesic acceptor's closure, and 10,214 raw states against 258
    minimal for the cyclically-shortlex checkers of co-P8.
    """
    minimal, bound = True, 2 * result.n_states
    for piece in pieces:
        result = _product(result, piece, keep)
        minimal = result.n_states > bound
        if minimal:
            result = minimize(result)
            bound = 2 * result.n_states
    return result if minimal else minimize(result)


# ---------------------------------------------------------------------------
# counting and growth series
# ---------------------------------------------------------------------------

def count_words(dfa: Dfa, max_degree: int) -> tuple:
    """Accepted-word counts of lengths 0..max_degree: the expansion of
    ``growth_series``."""
    return growth_series(dfa).expand(max_degree).coefficients


def _lumped_quotient(row, n: int, starts, accepting, colours=(slice(None),)):
    """The coarsest count-preserving quotient of a coloured automaton's trim part.

    ``row(q)`` lists the targets of state q in 0..n-1 with multiplicity, and
    ``row(q)[colours[c]]`` those under colour c (one colour by default);
    ``starts`` maps states to integer start weights.  All n states are
    lumped as they are: from accepting versus rejecting, a block is split by
    the multiset of blocks its states move to under each colour, until no
    block splits.  With P the 0/1 matrix sending each state to its block, and
    A_c, B_c the matrices of colour c before and after, that stability is
    A_c P = P B_c for every c (forward bisimulation of the automaton read as
    a weighted one, Buchholz, TCS 2008).  Summed over a set T of colours,
    (sum_T A_c) P = P (sum_T B_c): one quotient serves every restriction to a
    set of colours, which one multiset over all colours would not.

    The quotient is then cut to the blocks reachable from a block of nonzero
    summed start weight and co-reachable to an accepting block; when every
    state moves the same number of times under each colour, that is the
    coarsest quotient of the trim part (lemma in the module docstring).
    Returns ``(rows, starts, accepting)`` of the cut quotient: ``rows[b][c]``
    maps the targets under colour c of block b's first state to blocks, and
    ``starts`` maps blocks to their summed start weights.  A dead start gives
    the quotient with no blocks.
    """
    k = len(colours)
    # a move under colour c to state t is stored as c * n + t and tagged
    # block * k + c: one sorted tuple of tags holds every colour's multiset.
    # One colour needs neither: its moves are the rows and its tags the blocks
    outgoing = ([row(q)[colours[0]] for q in range(n)] if k == 1 else
                [[c * n + t for c, s in enumerate(colours) for t in row(q)[s]] for q in range(n)])

    # each pass splits the previous blocks and numbers the new ones by their
    # first state, so the quotient is canonical
    block, count = [1 if q in accepting else 0 for q in range(n)], 0
    while True:
        tags = block if k == 1 else [b * k + c for c in range(k) for b in block]
        signatures = {}
        block = [
            signatures.setdefault((block[q], tuple(sorted(map(tags.__getitem__, moves)))),
                                  len(signatures))
            for q, moves in enumerate(outgoing)
        ]
        if len(signatures) == count:
            break
        count = len(signatures)
    first = []  # the first state of each block, in block order
    for q, b in enumerate(block):
        if b == len(first):
            first.append(q)
    rows = [[[block[t] for t in row(q)[s]] for s in colours] for q in first]
    weights = {}
    for q, w in starts.items():
        weights[block[q]] = weights.get(block[q], 0) + w
    final = [b for b, q in enumerate(first) if q in accepting]
    flat = [[t for part in moves for t in part] for moves in rows]
    kept = sorted(_reachable(flat.__getitem__, [b for b, w in weights.items() if w])
                  & _coreachable(flat.__getitem__, count, final))
    index = {b: i for i, b in enumerate(kept)}
    return ([[[index[t] for t in part if t in index] for part in rows[b]] for b in kept],
            {index[b]: w for b, w in weights.items() if w and b in index},
            {index[b] for b in final if b in index})


def growth_series(dfa: Dfa) -> RationalFunction:
    """Exact rational generating function of the accepted-word counts.

    Any complete DFA is accepted; it need not be minimal.  The automaton is
    lumped as one colour by ``_lumped_quotient``, and ``_certify`` proves the
    fraction on the quotient.
    """
    return _certify(_lumped_quotient(_row(dfa), dfa.n_states, {dfa.initial: 1}, dfa.accepting))


def _signed_growth_series(terms) -> RationalFunction:
    """Sum of sign * ``growth_series(dfa)`` over the (sign, dfa) pairs of ``terms``.

    Each DFA is lumped as it arrives, with its sign as the weight of its
    initial state, so only the term quotients outlive the iteration.  Their
    disjoint union is lumped again, a lumping of the union of the DFAs, and
    certified once (lemma in the module docstring).
    """
    rows, starts, accepting = [], {}, set()
    for sign, dfa in terms:
        term_rows, term_starts, term_accepting = _lumped_quotient(
            _row(dfa), dfa.n_states, {dfa.initial: sign}, dfa.accepting)
        offset = len(rows)
        rows += [[t + offset for t in targets] for (targets,) in term_rows]
        starts.update((b + offset, w) for b, w in term_starts.items())
        accepting.update(b + offset for b in term_accepting)
    return _certify(_lumped_quotient(rows.__getitem__, len(rows), starts, accepting))


def vertex_quotient(dfa: Dfa):
    """The ``_lumped_quotient`` of ``dfa`` with one colour per vertex v: letters 2v and 2v + 1."""
    colours = [slice(x, x + 2) for x in range(0, dfa.alphabet.size, 2)]
    return _lumped_quotient(_row(dfa), dfa.n_states, {dfa.initial: 1}, dfa.accepting, colours)


def restricted_growth_series(quotient, vertices) -> RationalFunction:
    """Growth series of the accepted words over the letters of ``vertices``.

    ``quotient`` is a ``vertex_quotient``.  The sum of the colours of
    ``vertices`` counts the words over their letters.  It is cut down to the
    blocks it reaches from the start blocks and certified as one colour,
    without lumping it again.  Blocks that reach no accepting block stay:
    they are zero in every vector of the certificate.
    """
    rows, starts, accepting = quotient
    merged = [[t for v in vertices for t in row[v]] for row in rows]
    reached = sorted(_reachable(merged.__getitem__, starts))
    index = {q: i for i, q in enumerate(reached)}
    return _certify(([[[index[t] for t in merged[q]]] for q in reached],
                     {index[q]: w for q, w in starts.items()},
                     {index[q] for q in reached if q in accepting}))


def _certify(quotient) -> RationalFunction:
    """The growth series of a quotient shaped as ``_lumped_quotient`` returns it, proved.

    Its count of length k is a_k = e B^k v, with B its matrix (colours
    summed, targets with multiplicity), e its start weights and v the
    indicator of its accepting blocks.  For a quotient of an automaton with
    matrix A and start weights e', A P = P B, e = e' P and the accepting
    indicator P v give the automaton's counts.

    The fraction is proved by the annihilator of v (Berstel and Reutenauer,
    Noncommutative Rational Series with Applications, ch. 1):

    1. The Krylov vectors w_0 = v, w_{k+1} = B w_k are taken in turn.  Each
       is reduced against an echelon basis of the earlier ones, fraction-free:
       against a basis vector r' with pivot p, r becomes r'[p] r - r[p] r',
       which is zero at p and still zero at the pivots before.  Each remainder
       carries the integer combination c of w_0..w_k that it equals, and both
       are divided by their common gcd.
    2. Every step multiplies the coefficient of w_k by a nonzero pivot, and
       the basis holds only earlier vectors, so the first zero remainder gives
       sum_{i <= m} c_i w_i = 0 with c_m != 0.  The w_0..w_{m-1} before it are
       independent in Q^n, so m <= n on n blocks.
    3. For every k, sum_i c_i a_{k+i} = e B^k (sum_i c_i w_i) = 0.
    4. So with D(z) = sum_i c_i z^(m-i), D(0) = c_m, the coefficient of z^N
       in D F is sum_i c_i a_{N-m+i} = 0 for N >= m: D F is a polynomial of
       degree < m, read off a_0..a_{m-1}.

    Step 3 holds for any start weights e, so one annihilator proves a signed
    sum of counts as well as one count.  An empty accept set gives m = 0 and
    0/1.  ``RationalFunction.make`` reduces the fraction; no further check is
    needed.
    """
    rows, starts, accepting = quotient
    rows = [[t for part in row for t in part] for row in rows]
    vector = [1 if q in accepting else 0 for q in range(len(rows))]
    counts = []
    basis = []  # (pivot, r, c): r = sum_i c_i w_i, zero at every earlier pivot
    while True:
        m = len(counts)
        r, c = vector, [0] * m + [1]
        for pivot, rb, cb in basis:
            x = r[pivot]
            if x:
                y = rb[pivot]
                r = [y * a - x * b for a, b in zip(r, rb)]
                c = [y * a - x * b for a, b in zip(c, cb)] + [y * a for a in c[len(cb):]]
        if not any(r):
            break
        g = gcd(*r, *c)
        if g > 1:
            r = [a // g for a in r]
            c = [a // g for a in c]
        basis.append((next(q for q, a in enumerate(r) if a), r, c))
        counts.append(sum(w * vector[b] for b, w in starts.items()))
        vector = [sum(map(vector.__getitem__, row)) for row in rows]
    denominator = c[::-1]
    numerator = [sum(denominator[i] * counts[k - i] for i in range(k + 1)) for k in range(m)]
    return RationalFunction.make(numerator, denominator)
