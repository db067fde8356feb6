"""Reference minimization: reachable restriction, then set-based Hopcroft.

The straightforward form of ``automata.minimize``: restrict to the states
reachable from the initial one, refine with Hopcroft's algorithm (a set per
block and a set per splitter preimage), and renumber the quotient breadth
first.  The tests compare the library's minimization against it.
"""

from __future__ import annotations

from collections import deque

from raaggrowth.automata import Dfa


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
