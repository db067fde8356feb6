"""Reference automaton operations: the straightforward forms of library kernels.

* ``minimize``: restrict to the states reachable from the initial one,
  refine with Hopcroft's algorithm (a set per block and a set per splitter
  preimage), and renumber the quotient breadth first.
* ``concat``: build an NFA with an epsilon move from every accepting state of
  the left operand to the initial state of the right one, determinize it by
  the subset construction over epsilon closures, and minimize as above.
* ``cyc_perm``: minimize the input, build the piece Suffixes(q) . Prefixes(q)
  of every state q with the reference ``concat``, drop pieces with equal
  encodings, and fold the pieces with ``automata.union``, which minimizes
  after every step.  The library minimizes its fold only when it has doubled.
* ``map_letters``: fill the new transition table one lookup per state and
  target letter, and minimize as above.  The library has no letter map: it
  reads every letter restriction off one vertex-coloured lumped quotient.
* ``count_words``: the count DP on the whole automaton, one vector entry per
  state.
* ``growth_series``: Berlekamp-Massey over the rationals proposes a
  recurrence from a window of counts of the *unlumped* trim automaton; it is
  accepted when its connection polynomial annihilates the whole vector
  sequence A^n v (a Krylov residual check), and otherwise the fraction comes
  from ``transfer_matrix_series`` on that unlumped automaton.
* ``lumped_quotient``: restrict a coloured automaton to its reachable and
  co-reachable states first, then lump them.  The library lumps every raw
  state and cuts the small quotient afterwards.
* ``transfer_matrix_series``: a denominator and a numerator-degree bound
  proved component by component (Tarjan's algorithm orders the components
  sinks first), with factor maps max-merged along the way, and each
  component's det(I - zA_C) by Faddeev-LeVerrier (``det_one_minus_z``).
  ``certify`` runs it on a lumped quotient, once per start block.  The
  library proves its fraction by the Krylov annihilator of the accept vector
  instead, and shares no code with this certificate; ``krylov_dimension`` is
  the number of counts that certificate must read, by Gaussian elimination
  over Q.

The tests compare ``automata.minimize``, ``automata.concat``,
``automata.cyc_perm``, ``automata.count_words``, ``automata.growth_series``,
``automata.restricted_growth_series``, ``automata._lumped_quotient``,
``automata._signed_growth_series`` and ``automata._certify`` against them.
``words_up_to`` lists the accepted words of an automaton by length, for
brute-force comparisons.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd

from raaggrowth import automata
from raaggrowth.automata import Dfa
from raaggrowth.graphs import OrderedAlphabet
from raaggrowth.series import InvariantError, RationalFunction, poly_mul, poly_trim


def restrict_reachable(dfa: Dfa) -> Dfa:
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
    dfa = restrict_reachable(dfa)
    n = dfa.n_states
    size = dfa.alphabet.size
    if n == 0:
        return dfa

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


class Nfa:
    """NFA with epsilon moves; intermediate form for concatenation."""

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


def concat(a: Dfa, b: Dfa) -> Dfa:
    """Language concatenation L(a)L(b) through an epsilon-NFA."""
    if a.alphabet != b.alphabet:
        raise ValueError("automata are defined over different alphabets")
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
    nfa = Nfa(a.alphabet, offset + b.n_states, transitions, eps, {a.initial}, accepting)
    return minimize(nfa.determinize())


def cyc_perm(dfa: Dfa) -> Dfa:
    """Closure of L(dfa) under cyclic permutation, one minimized union per piece."""
    a = minimize(dfa)
    pieces = {}
    for q in range(a.n_states):
        suffixes = Dfa(a.alphabet, a.n_states, a.transitions, q, a.accepting)
        prefixes = Dfa(a.alphabet, a.n_states, a.transitions, a.initial, {q})
        piece = concat(suffixes, prefixes)
        pieces.setdefault(piece.encode(), piece)
    result = automata.empty_language_dfa(a.alphabet)
    for piece in pieces.values():
        result = automata.union(result, piece)
    return result


def map_letters(dfa: Dfa, target: OrderedAlphabet, letter_map) -> Dfa:
    """Reinterpret over ``target``; unmapped target letters go to a dead sink."""
    size = target.size
    sink = dfa.n_states
    table = []
    for q in range(dfa.n_states):
        for x in range(size):
            local = letter_map.get(x)
            table.append(dfa.transitions[q * dfa.alphabet.size + local] if local is not None else sink)
    table.extend([sink] * size)
    return minimize(Dfa(target, sink + 1, table, dfa.initial, dfa.accepting))


def words_up_to(dfa: Dfa, max_length: int):
    """Yield all accepted words of length <= max_length (lexicographic per length).

    Prefixes that cannot reach an accepting state anymore are pruned.
    """
    size = dfa.alphabet.size
    live = automata._coreachable(automata._row(dfa), dfa.n_states, dfa.accepting)
    layer = [((), dfa.initial)] if dfa.initial in live else []
    for length in range(max_length + 1):
        for word, q in layer:
            if q in dfa.accepting:
                yield word
        if length == max_length:
            break
        layer = [
            (word + (x,), target)
            for word, q in layer
            for x in range(size)
            if (target := dfa.transitions[q * size + x]) in live
        ]


def count_words(dfa: Dfa, max_degree: int) -> tuple:
    """Accepted-word counts of lengths 0..max_degree, by the count DP on all states."""
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
    return tuple(counts)


class Counting:
    """Count DP e A^k v: ``outgoing[q]`` lists the targets of q with multiplicity."""

    def __init__(self, outgoing, initial: int, v0):
        self.n = len(outgoing)
        self.outgoing = outgoing
        self.initial = initial
        self.v0 = list(v0)
        self.vector = list(self.v0)
        self.counts = [self.vector[self.initial]]

    def step_vector(self, y):
        return [sum(map(y.__getitem__, row)) for row in self.outgoing]

    def extend_to(self, k: int):
        while len(self.counts) <= k:
            self.vector = self.step_vector(self.vector)
            self.counts.append(self.vector[self.initial])


class TrimmedCounting(Counting):
    """Count DP on the trim part (reachable and co-reachable) of a DFA, unlumped."""

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
        coreachable = automata._coreachable(automata._row(dfa), dfa.n_states, dfa.accepting)
        trim = sorted(reachable & coreachable)
        self.empty = dfa.initial not in trim
        if self.empty:
            return
        index = {q: i for i, q in enumerate(trim)}
        outgoing = []
        for q in trim:
            base = q * size
            outgoing.append(
                [index[t] for x in range(size) if (t := dfa.transitions[base + x]) in index]
            )
        super().__init__(outgoing, index[dfa.initial],
                         [1 if q in dfa.accepting else 0 for q in trim])


def berlekamp_massey(sequence):
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


def fractions_to_int_poly(fracs):
    """Clear denominators, preserving length (trailing zeros carry the order)."""
    lcm = 1
    for c in fracs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    return [int(c * lcm) for c in fracs]


def krylov_annihilates(work: TrimmedCounting, denominator) -> bool:
    """Whether sum_i D[i] A^(L-i) v = 0, by Horner's rule (D = denominator, L = order)."""
    residual = [denominator[0] * x for x in work.v0]
    for c in denominator[1:]:
        residual = [r + c * x for r, x in zip(work.step_vector(residual), work.v0)]
    return not any(residual)


def growth_series(dfa: Dfa) -> RationalFunction:
    """Growth series by a Krylov-checked Berlekamp-Massey candidate on the
    unlumped trim automaton, with the transfer-matrix certificate as fallback."""
    work = TrimmedCounting(dfa)
    if work.empty:
        return RationalFunction.make([0])
    window = 32
    while True:
        work.extend_to(window - 1)
        connection = berlekamp_massey(work.counts[:window])
        order = len(connection) - 1
        if 2 * order + 4 <= window or window >= 2 * work.n + 4:
            break
        window = min(max(window * 2, 2 * order + 8), 2 * work.n + 4)
    denominator = fractions_to_int_poly(connection)
    if not krylov_annihilates(work, denominator):
        return transfer_matrix_series(work)
    return RationalFunction.make(
        truncated_product(denominator, work.counts, order - 1), denominator)


def truncated_product(poly, counts, top: int):
    """Coefficients 0..top of poly(z) * sum_n counts[n] z^n."""
    return [
        sum(poly[i] * counts[m - i] for i in range(min(m, len(poly) - 1) + 1))
        for m in range(top + 1)
    ]


def transfer_matrix_series(work: TrimmedCounting) -> RationalFunction:
    """Growth series proved from the component structure of a counting automaton.

    ``work`` is shaped like ``TrimmedCounting``: ``n`` states whose
    ``outgoing`` rows list targets with multiplicity (a nonnegative integer
    matrix A), an ``initial`` state and counts e A^n v from ``extend_to``.

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
    computed from the first N + 1 counts.
    """
    components = strongly_connected_components(work.outgoing)
    component_of = [0] * work.n
    for k, states in enumerate(components):
        for q in states:
            component_of[q] = k
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
            det = det_one_minus_z(rows)
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
    return RationalFunction.make(truncated_product(denominator, work.counts, bounds[top]),
                                 denominator)


def certify(quotient) -> RationalFunction:
    """``transfer_matrix_series`` on a quotient shaped as ``automata._certify`` takes it,
    one start block at a time, summed with the start weights."""
    rows, starts, accepting = quotient
    outgoing = [[t for part in row for t in part] for row in rows]
    vector = [1 if q in accepting else 0 for q in range(len(rows))]
    total = RationalFunction.make([0])
    for initial, weight in starts.items():
        total = total + RationalFunction.make([weight]) * transfer_matrix_series(
            Counting(outgoing, initial, vector))
    return total


def krylov_dimension(quotient) -> int:
    """Rank over Q of v, Bv, ..., B^n v for a quotient shaped as ``certify`` takes it."""
    rows, _, accepting = quotient
    outgoing = [[t for part in row for t in part] for row in rows]
    matrix = [[Fraction(int(q in accepting)) for q in range(len(rows))]]
    for _ in rows:
        matrix.append([sum(matrix[-1][t] for t in row) for row in outgoing])
    rank = 0
    for column in range(len(rows)):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][column]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for i in range(rank + 1, len(matrix)):
            factor = matrix[i][column] / matrix[rank][column]
            matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


def lumped_quotient(row, n: int, initial: int, accepting, colours=(slice(None),)):
    """The coarsest count-preserving quotient of a coloured automaton's trim part,
    trimmed before it is lumped.

    ``row``, ``n``, ``accepting`` and ``colours`` are as ``automata._lumped_quotient``
    takes them, with one initial state of weight 1.  Only the reachable and
    co-reachable states are lumped, from accepting versus rejecting, split by
    the multiset of blocks their trim targets fall in under each colour.
    Returns ``(rows, initial, accepting)``; the initial state is kept even when
    it is dead, so an empty trim part gives one rejecting block without moves.
    """
    trim = sorted((automata._reachable(row, (initial,)) & automata._coreachable(row, n, accepting))
                  | {initial})
    index = {q: i for i, q in enumerate(trim)}
    k, m = len(colours), len(trim)
    outgoing = [[c * m + index[t] for c, s in enumerate(colours) for t in row(q)[s] if t in index]
                for q in trim]
    vector = [1 if q in accepting else 0 for q in trim]
    block, count = vector, 0
    while True:
        tags = [b * k + c for c in range(k) for b in block]
        signatures = {}
        block = [
            signatures.setdefault((block[q], tuple(sorted(map(tags.__getitem__, moves)))),
                                  len(signatures))
            for q, moves in enumerate(outgoing)
        ]
        if len(signatures) == count:
            break
        count = len(signatures)
    first = [block.index(b) for b in range(count)]
    quotient = [[[block[x % m] for x in outgoing[q] if x // m == c] for c in range(k)]
                for q in first]
    return quotient, block[index[initial]], {b for b, q in enumerate(first) if vector[q]}


def det_one_minus_z(rows) -> tuple:
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


def strongly_connected_components(outgoing):
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
