"""Reference automaton operations: the straightforward forms of library kernels.

* ``minimize``: restrict to the states reachable from the initial one,
  refine with Hopcroft's algorithm (a set per block and a set per splitter
  preimage), and renumber the quotient breadth first.
* ``concat``: build an NFA with an epsilon move from every accepting state of
  the left operand to the initial state of the right one, determinize it by
  the subset construction over epsilon closures, and minimize as above.
* ``map_letters``: fill the new transition table one lookup per state and
  target letter, and minimize as above.

The tests compare ``automata.minimize``, ``automata.concat`` and
``automata.map_letters`` against them.
"""

from __future__ import annotations

from collections import deque

from raaggrowth.automata import Dfa
from raaggrowth.graphs import OrderedAlphabet


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
