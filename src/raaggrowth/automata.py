"""Complete deterministic finite automata with exact growth-series extraction.

Every language in the pipeline is carried by a complete DFA over an
``OrderedAlphabet`` (letters are ints ``0..size-1``).  Automata are immutable;
all operations return fresh values, minimized eagerly so that repeated
products and closures stay tractable.

Minimized automata are renumbered canonically (breadth-first from the initial
state in letter order), so two automata accept the same language exactly when
their encodings coincide.

``growth_series`` produces the generating function counting accepted words by
length, as an exact integer rational function.  It works for any coefficient
size: counts are computed with Python big ints, and every returned fraction is
*proved* by one of two certificates.  First, a Berlekamp-Massey candidate
recurrence is accepted when it annihilates the whole vector sequence A^n v of
the trim transition matrix (a Krylov residual check).  When that residual is
nonzero, a denominator and a numerator-degree bound are proved from the
strongly connected components of the trim automaton (transfer-matrix method),
and the numerator is read off that many counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .graphs import OrderedAlphabet
from .series import InvariantError, RationalFunction, poly_mul, poly_trim


class AlphabetMismatch(ValueError):
    """Operands of a language operation live over different alphabets."""


def _require_same_alphabet(a: "Dfa", b: "Dfa"):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("automata are defined over different alphabets")


@dataclass(frozen=True)
class LengthCounts:
    """Number of accepted words of each length 0..max_degree."""

    counts: tuple[int, ...]

    @property
    def max_degree(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, n: int) -> int:
        return self.counts[n]

    def __iter__(self):
        return iter(self.counts)


class Dfa:
    """Complete DFA: total transition table, one initial state, accept set."""

    __slots__ = ("alphabet", "n_states", "transitions", "initial", "accepting")

    def __init__(self, alphabet: OrderedAlphabet, n_states: int, transitions, initial: int, accepting):
        self.alphabet = alphabet
        self.n_states = n_states
        self.transitions = tuple(transitions)  # row-major: state * size + letter
        self.initial = initial
        self.accepting = frozenset(accepting)
        size = alphabet.size
        if len(self.transitions) != n_states * size:
            raise ValueError("transition table size does not match state count")
        if not 0 <= initial < max(n_states, 1):
            raise ValueError("initial state out of range")
        for t in self.transitions:
            if not 0 <= t < n_states:
                raise ValueError("transition target out of range")
        for q in self.accepting:
            if not 0 <= q < n_states:
                raise ValueError("accepting state out of range")

    def delta(self, state: int, letter: int) -> int:
        return self.transitions[state * self.alphabet.size + letter]

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

    def words_up_to(self, max_length: int):
        """Yield all accepted words of length <= max_length (lexicographic per length).

        Prefixes that cannot reach an accepting state anymore are pruned.
        """
        size = self.alphabet.size
        live = _coreachable(self)
        layer = [((), self.initial)] if self.initial in live else []
        for length in range(max_length + 1):
            for word, q in layer:
                if q in self.accepting:
                    yield word
            if length == max_length:
                break
            layer = [
                (word + (x,), target)
                for word, q in layer
                for x in range(size)
                if (target := self.transitions[q * size + x]) in live
            ]

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet.labels),
            "states": self.n_states,
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "transitions": [
                list(self.transitions[q * self.alphabet.size:(q + 1) * self.alphabet.size])
                for q in range(self.n_states)
            ],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "Dfa":
        alphabet = OrderedAlphabet(tuple(doc["alphabet"]))
        rows = doc["transitions"]
        flat = [t for row in rows for t in row]
        return Dfa(alphabet, doc["states"], flat, doc["initial"], doc["accepting"])


# ---------------------------------------------------------------------------
# elementary automata
# ---------------------------------------------------------------------------

def all_words_dfa(alphabet: OrderedAlphabet) -> Dfa:
    return Dfa(alphabet, 1, [0] * alphabet.size, 0, {0})


def empty_language_dfa(alphabet: OrderedAlphabet) -> Dfa:
    return Dfa(alphabet, 1, [0] * alphabet.size, 0, set())


def epsilon_dfa(alphabet: OrderedAlphabet) -> Dfa:
    size = alphabet.size
    table = [1] * size + [1] * size
    return Dfa(alphabet, 2, table, 0, {0})


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

def _restrict_reachable(dfa: Dfa) -> Dfa:
    size = dfa.alphabet.size
    order = [dfa.initial]
    index = {dfa.initial: 0}
    for q in order:
        base = q * size
        for x in range(size):
            t = dfa.transitions[base + x]
            if t not in index:
                index[t] = len(order)
                order.append(t)
    table = []
    for q in order:
        base = q * size
        table.extend(index[dfa.transitions[base + x]] for x in range(size))
    accepting = {index[q] for q in dfa.accepting if q in index}
    return Dfa(dfa.alphabet, len(order), table, 0, accepting)


def minimize(dfa: Dfa) -> Dfa:
    """Unique minimal complete DFA with canonical breadth-first numbering."""
    dfa = _restrict_reachable(dfa)
    n = dfa.n_states
    size = dfa.alphabet.size
    if n == 0:
        return dfa

    # Hopcroft partition refinement
    incoming = [[[] for _ in range(n)] for _ in range(size)]
    for q in range(n):
        base = q * size
        for x in range(size):
            incoming[x][dfa.transitions[base + x]].append(q)

    accepting = set(dfa.accepting)
    rest = set(range(n)) - accepting
    partition = []
    if accepting:
        partition.append(set(accepting))
    if rest:
        partition.append(set(rest))
    block_of = [0] * n
    for b, block in enumerate(partition):
        for q in block:
            block_of[q] = b
    work = deque(range(len(partition)))
    in_work = [True] * len(partition)

    while work:
        a = work.popleft()
        in_work[a] = False
        splitter = list(partition[a])
        for x in range(size):
            preimage = set()
            for q in splitter:
                preimage.update(incoming[x][q])
            if not preimage:
                continue
            touched = {}
            for p in preimage:
                touched.setdefault(block_of[p], set()).add(p)
            for b, inside in touched.items():
                block = partition[b]
                if len(inside) == len(block):
                    continue
                block -= inside
                new_index = len(partition)
                partition.append(inside)
                in_work.append(False)
                for p in inside:
                    block_of[p] = new_index
                if in_work[b]:
                    work.append(new_index)
                    in_work[new_index] = True
                else:
                    smaller = new_index if len(inside) <= len(block) else b
                    work.append(smaller)
                    in_work[smaller] = True

    # canonical BFS renumbering of the quotient
    rep_delta = {}
    for b, block in enumerate(partition):
        q = next(iter(block))
        base = q * size
        rep_delta[b] = [block_of[dfa.transitions[base + x]] for x in range(size)]
    start = block_of[dfa.initial]
    order = [start]
    number = {start: 0}
    for b in order:
        for x in range(size):
            t = rep_delta[b][x]
            if t not in number:
                number[t] = len(order)
                order.append(t)
    table = []
    for b in order:
        table.extend(number[t] for t in rep_delta[b])
    accepting_blocks = {number[block_of[q]] for q in dfa.accepting}
    return Dfa(dfa.alphabet, len(order), table, 0, accepting_blocks)


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality via canonical minimal forms."""
    _require_same_alphabet(a, b)
    return minimize(a).encode() == minimize(b).encode()


# ---------------------------------------------------------------------------
# boolean operations
# ---------------------------------------------------------------------------

def _product(a: Dfa, b: Dfa, keep) -> Dfa:
    _require_same_alphabet(a, b)
    size = a.alphabet.size
    start = (a.initial, b.initial)
    index = {start: 0}
    order = [start]
    table = []
    for p, q in order:
        pa = p * size
        qb = q * size
        for x in range(size):
            t = (a.transitions[pa + x], b.transitions[qb + x])
            if t not in index:
                index[t] = len(order)
                order.append(t)
            table.append(index[t])
    accepting = {
        i for i, (p, q) in enumerate(order) if keep(p in a.accepting, q in b.accepting)
    }
    return minimize(Dfa(a.alphabet, len(order), table, 0, accepting))


def intersect(a: Dfa, b: Dfa) -> Dfa:
    return _product(a, b, lambda x, y: x and y)


def union(a: Dfa, b: Dfa) -> Dfa:
    return _product(a, b, lambda x, y: x or y)


def difference(a: Dfa, b: Dfa) -> Dfa:
    return _product(a, b, lambda x, y: x and not y)


def complement_lang(a: Dfa) -> Dfa:
    flipped = set(range(a.n_states)) - a.accepting
    return minimize(Dfa(a.alphabet, a.n_states, a.transitions, a.initial, flipped))


def intersect_all(automata) -> Dfa:
    automata = list(automata)
    if not automata:
        raise ValueError("intersect_all needs at least one automaton")
    out = automata[0]
    for other in automata[1:]:
        out = intersect(out, other)
    return out


# ---------------------------------------------------------------------------
# nondeterministic automata and determinization
# ---------------------------------------------------------------------------

class Nfa:
    """NFA with epsilon moves; intermediate form for concatenation/closure."""

    __slots__ = ("alphabet", "n_states", "transitions", "eps", "initials", "accepting")

    def __init__(self, alphabet, n_states, transitions, eps, initials, accepting):
        self.alphabet = alphabet
        self.n_states = n_states
        self.transitions = transitions  # list per state: dict letter -> tuple of targets
        self.eps = eps                  # list per state: tuple of targets
        self.initials = frozenset(initials)
        self.accepting = frozenset(accepting)

    def _closure(self, states) -> frozenset:
        out = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for t in self.eps[q]:
                if t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    def determinize(self) -> Dfa:
        size = self.alphabet.size
        start = self._closure(self.initials)
        index = {start: 0}
        order = [start]
        table = []
        for subset in order:
            for x in range(size):
                targets = set()
                for q in subset:
                    targets.update(self.transitions[q].get(x, ()))
                t = self._closure(targets)
                if t not in index:
                    index[t] = len(order)
                    order.append(t)
                table.append(index[t])
        accepting = {i for i, subset in enumerate(order) if subset & self.accepting}
        return Dfa(self.alphabet, len(order), table, 0, accepting)


def _concat_nfa(a: Dfa, b: Dfa) -> Nfa:
    _require_same_alphabet(a, b)
    size = a.alphabet.size
    offset = a.n_states
    transitions = []
    eps = []
    for q in range(a.n_states):
        base = q * size
        transitions.append({x: (a.transitions[base + x],) for x in range(size)})
        eps.append((offset + b.initial,) if q in a.accepting else ())
    for q in range(b.n_states):
        base = q * size
        transitions.append({x: (offset + b.transitions[base + x],) for x in range(size)})
        eps.append(())
    accepting = {offset + q for q in b.accepting}
    return Nfa(a.alphabet, offset + b.n_states, transitions, eps, {a.initial}, accepting)


def concat(a: Dfa, b: Dfa) -> Dfa:
    """Language concatenation L(a)L(b)."""
    return minimize(_concat_nfa(a, b).determinize())


# ---------------------------------------------------------------------------
# cyclic permutation closure
# ---------------------------------------------------------------------------

def _coreachable(dfa: Dfa) -> set:
    size = dfa.alphabet.size
    incoming = [[] for _ in range(dfa.n_states)]
    for q in range(dfa.n_states):
        base = q * size
        for x in range(size):
            incoming[dfa.transitions[base + x]].append(q)
    seen = set(dfa.accepting)
    stack = list(dfa.accepting)
    while stack:
        q = stack.pop()
        for p in incoming[q]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def cyc_perm(a: Dfa) -> Dfa:
    """Closure of L(a) under cyclic permutation: {vu : uv in L(a)}.

    Built as the union over states q of Suffixes(a, q) . Prefixes(a, q),
    where Suffixes re-roots the initial state at q and Prefixes re-roots
    acceptance at q.  Pieces with equal languages are merged up front.
    """
    a = minimize(a)
    coreach = _coreachable(a)
    result = empty_language_dfa(a.alphabet)
    seen_pieces = set()
    for q in range(a.n_states):
        if q not in coreach:
            continue  # Suffixes(a, q) is empty
        suffixes = minimize(Dfa(a.alphabet, a.n_states, a.transitions, q, a.accepting))
        prefixes = minimize(Dfa(a.alphabet, a.n_states, a.transitions, a.initial, {q}))
        piece = concat(suffixes, prefixes)
        key = piece.encode()
        if key in seen_pieces:
            continue
        seen_pieces.add(key)
        result = union(result, piece)
    return result


# ---------------------------------------------------------------------------
# alphabet embedding
# ---------------------------------------------------------------------------

def map_letters(dfa: Dfa, target: OrderedAlphabet, letter_map) -> Dfa:
    """Reinterpret over ``target``; unmapped target letters go to a dead sink.

    ``letter_map`` maps target letters to letters of ``dfa``'s alphabet.
    """
    size = target.size
    sink = dfa.n_states
    table = []
    for q in range(dfa.n_states):
        for x in range(size):
            local = letter_map.get(x)
            table.append(dfa.delta(q, local) if local is not None else sink)
    table.extend([sink] * size)
    return minimize(Dfa(target, sink + 1, table, dfa.initial, dfa.accepting))


# ---------------------------------------------------------------------------
# counting and growth series
# ---------------------------------------------------------------------------

def count_words(dfa: Dfa, max_degree: int) -> LengthCounts:
    """Accepted-word counts by length, exact big-int dynamic programming."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    size = dfa.alphabet.size
    transitions = dfa.transitions
    y = [1 if q in dfa.accepting else 0 for q in range(dfa.n_states)]
    counts = [y[dfa.initial]]
    for _ in range(max_degree):
        y = [
            sum(y[t] for t in transitions[q * size:(q + 1) * size])
            for q in range(dfa.n_states)
        ]
        counts.append(y[dfa.initial])
    return LengthCounts(tuple(counts))


def _berlekamp_massey(sequence):
    """Shortest LFSR over Q: C with C[0]=1, sum_i C[i]*s[n-i] = 0 for n >= len(C)-1."""
    C = [Fraction(1)]
    B = [Fraction(1)]
    L, m, b = 0, 1, Fraction(1)
    for n, s_n in enumerate(sequence):
        d = Fraction(s_n)
        for i in range(1, L + 1):
            d += C[i] * sequence[n - i]
        if d == 0:
            m += 1
            continue
        coef = d / b
        if 2 * L <= n:
            T = list(C)
            while len(C) < len(B) + m:
                C.append(Fraction(0))
            for i, c in enumerate(B):
                C[i + m] -= coef * c
            L = n + 1 - L
            B = T
            b = d
            m = 1
        else:
            while len(C) < len(B) + m:
                C.append(Fraction(0))
            for i, c in enumerate(B):
                C[i + m] -= coef * c
            m += 1
    # the connection polynomial has degree <= L; keep exactly L+1 taps
    # (trailing zeros are meaningful: the recurrence order is L, not deg C)
    if any(C[L + 1:]):
        raise InvariantError("Berlekamp-Massey left nonzero taps past the recurrence order")
    del C[L + 1:]
    while len(C) < L + 1:
        C.append(Fraction(0))
    return C


class _TrimmedCounting:
    """Count DP on the trim part (reachable and co-reachable) of a DFA."""

    def __init__(self, dfa: Dfa):
        size = dfa.alphabet.size
        reachable = set()
        stack = [dfa.initial]
        while stack:
            q = stack.pop()
            if q in reachable:
                continue
            reachable.add(q)
            base = q * size
            stack.extend(dfa.transitions[base + x] for x in range(size))
        trim = sorted(reachable & _coreachable(dfa))
        self.empty = dfa.initial not in trim
        if self.empty:
            return
        index = {q: i for i, q in enumerate(trim)}
        self.n = len(trim)
        self.outgoing = []  # per trim state, list of trim targets (with multiplicity)
        for q in trim:
            base = q * size
            self.outgoing.append(
                [index[t] for x in range(size) if (t := dfa.transitions[base + x]) in index]
            )
        self.initial = index[dfa.initial]
        self.v0 = [1 if q in dfa.accepting else 0 for q in trim]
        self.vector = list(self.v0)
        self.counts = [self.vector[self.initial]]

    def step_vector(self, y):
        return [sum(map(y.__getitem__, row)) for row in self.outgoing]

    def extend_to(self, k: int):
        while len(self.counts) <= k:
            self.vector = self.step_vector(self.vector)
            self.counts.append(self.vector[self.initial])


def growth_series(dfa: Dfa) -> RationalFunction:
    """Exact rational generating function of the accepted-word counts.

    Any complete DFA is accepted; it need not be minimal, since both
    certificates below are proofs for any automaton and the counting works
    on its trim part.  Let A be the transition matrix of the trim automaton,
    v the indicator of its accepting states and e that of the initial state,
    so that the count of length n is e A^n v and the series is
    F = e (I - zA)^{-1} v.  Two certificates prove the returned fraction;
    neither can fail.

    1. *Krylov.*  Berlekamp-Massey proposes a recurrence with connection
       polynomial D of order L from the first counts.  If the vector
       sum_m D[L-m] A^m v is zero, then D annihilates e A^n v for all n,
       so D F is a polynomial of degree < L and is read off the counts.
       This certifies most automata cheaply, but the residual is nonzero
       whenever the initial state's sequence cancels a factor that the
       vector sequence A^n v carries.
    2. *Transfer matrix* (Stanley, EC1 §4.7), see ``_transfer_matrix_series``:
       a denominator Q and a numerator degree bound N are proved from the
       strongly connected components of the trim automaton, and the
       numerator is Q F truncated at degree N.
    """
    work = _TrimmedCounting(dfa)
    if work.empty:
        return RationalFunction.make([0])

    window = 32
    while True:
        work.extend_to(window - 1)
        connection = _berlekamp_massey(work.counts[:window])
        order = len(connection) - 1
        if 2 * order + 4 <= window or window >= 2 * work.n + 4:
            break
        window = min(max(window * 2, 2 * order + 8), 2 * work.n + 4)
    denominator = _fractions_to_int_poly(connection)
    if not _krylov_annihilates(work, denominator):
        return _transfer_matrix_series(work)
    return RationalFunction.make(_truncated_product(denominator, work.counts, order - 1),
                                 denominator)


def _fractions_to_int_poly(fracs):
    """Clear denominators, preserving length (trailing zeros carry the order)."""
    lcm = 1
    for c in fracs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    return [int(c * lcm) for c in fracs]


def _truncated_product(poly, counts, top: int):
    """Coefficients 0..top of poly(z) * sum_n counts[n] z^n."""
    return [
        sum(poly[i] * counts[m - i] for i in range(min(m, len(poly) - 1) + 1))
        for m in range(top + 1)
    ]


def _krylov_annihilates(work: _TrimmedCounting, denominator) -> bool:
    """Whether sum_i D[i] A^(L-i) v = 0, by Horner's rule (D = denominator, L = order)."""
    residual = [denominator[0] * x for x in work.v0]
    for c in denominator[1:]:
        residual = [r + c * x for r, x in zip(work.step_vector(residual), work.v0)]
    return not any(residual)


def _transfer_matrix_series(work: _TrimmedCounting) -> RationalFunction:
    """Growth series proved from the component structure of the trim automaton.

    Order the states by strongly connected component C, sinks first.  The
    vector F_C of the series of C's states satisfies

        F_C = (I - zA_C)^{-1} (v_C + z E_C F_out),

    where A_C is the transition matrix inside C, v_C the acceptance vector of
    C and E_C the edges from C to its successor components.  Write
    det_C = det(I - zA_C) (1 if C has no internal edge).  By induction from
    the sinks, every entry of F_s is P/Q_s with deg P <= N(s), where

        Q_C = det_C * Q_out,   Q_out = prod f^e over the max-merge of the
                                       successors' factor -> exponent maps,
        N(C) = |C| - 1 + max(deg Q_out, 1 + max_s(N(s) + deg Q_out - deg Q_s)).

    Proof of the step: (I - zA_C)^{-1} = adj(I - zA_C) / det_C, and each entry
    of the adjugate is a minor of order |C| - 1 of a matrix whose entries are
    polynomials of degree <= 1, so it has degree <= |C| - 1.  Every Q_s
    divides Q_out, so v_C + z E_C F_out = (v_C Q_out + z E_C (P_s Q_out/Q_s))
    / Q_out with numerator degree <= max(deg Q_out, 1 + N(s) + deg Q_out -
    deg Q_s).  Multiplying by the adjugate adds |C| - 1.

    With C0 the initial state's component, Q = Q_{C0} has Q(0) = 1 and Q F is
    a polynomial of degree <= N = N(C0), so it equals Q F truncated at N,
    computed from the first N + 1 counts.  The fraction is exact without any
    further check; ``RationalFunction.make`` reduces it.
    """
    components = _strongly_connected_components(work.outgoing)
    component_of = [0] * work.n
    for k, states in enumerate(components):
        for q in states:
            component_of[q] = k
    determinants = {}  # row structure -> det(I - zA_C); components repeat
    factors = []       # per component: det polynomial -> exponent in Q_C
    degrees = []       # per component: deg Q_C
    bounds = []        # per component: N(C)
    for k, states in enumerate(components):
        local = {q: i for i, q in enumerate(states)}
        rows = tuple(
            tuple(sorted(local[t] for t in work.outgoing[q] if component_of[t] == k))
            for q in states
        )
        successors = {component_of[t] for q in states for t in work.outgoing[q]} - {k}
        merged = {}
        for s in successors:
            for f, e in factors[s].items():
                if e > merged.get(f, 0):
                    merged[f] = e
        degree_out = sum(e * (len(f) - 1) for f, e in merged.items())
        inner = degree_out
        for s in successors:
            inner = max(inner, 1 + bounds[s] + degree_out - degrees[s])
        bounds.append(len(states) - 1 + inner)
        if any(rows):
            if rows not in determinants:
                determinants[rows] = _det_one_minus_z(rows)
            det = determinants[rows]
            merged[det] = merged.get(det, 0) + 1
            degree_out += len(det) - 1
        factors.append(merged)
        degrees.append(degree_out)

    top = component_of[work.initial]
    denominator = [1]
    for f, e in factors[top].items():
        for _ in range(e):
            denominator = poly_mul(denominator, f)
    work.extend_to(bounds[top])
    return RationalFunction.make(_truncated_product(denominator, work.counts, bounds[top]),
                                 denominator)


def _strongly_connected_components(outgoing):
    """Tarjan's algorithm without recursion; components come out sinks first."""
    n = len(outgoing)
    number = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if number[root] >= 0:
            continue
        frames = [(root, 0)]
        while frames:
            v, i = frames.pop()
            if i == 0:
                number[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            row = outgoing[v]
            while i < len(row):
                w = row[i]
                i += 1
                if number[w] < 0:
                    frames.append((v, i))
                    frames.append((w, 0))
                    break
                if on_stack[w] and number[w] < low[v]:
                    low[v] = number[w]
            else:
                if low[v] == number[v]:
                    states = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        states.append(w)
                        if w == v:
                            break
                    components.append(sorted(states))
                if frames and low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
    return components


def _det_one_minus_z(rows) -> tuple:
    """det(I - zA) by Faddeev-LeVerrier over the integers.

    ``rows[i]`` lists the column of every unit entry of row i of A (repeated
    for multiplicity).  With M_1 = I, the characteristic polynomial
    sum_k c_k x^k of A has c_{n-k} = -tr(A M_k)/k and M_{k+1} = A M_k +
    c_{n-k} I; then det(I - zA) = sum_k c_{n-k} z^k.
    """
    n = len(rows)
    coefficients = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(column) for column in zip(*[m[j] for j in row])] if row else [0] * n
              for row in rows]
        trace = sum(am[i][i] for i in range(n))
        if trace % k:
            raise InvariantError(f"Faddeev-LeVerrier trace {trace} is not divisible by {k}")
        c = -(trace // k)
        coefficients.append(c)
        for i in range(n):
            am[i][i] += c
        m = am
    return tuple(poly_trim(coefficients))
