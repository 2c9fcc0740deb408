"""Strongly-connected-component and end-component analysis.

Chains are any objects exposing ``states`` (ordered) and ``rows`` (state ->
{successor: probability}).  The package decomposes only policy-induced
chains, which keep just the states the policy reaches, so every BSCC is
reachable and no reachability is computed here.  End components and acceptance
work on the integer-indexed product MDP of ``ssltl.product``: states are
product state indices and actions are pair ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


def strongly_connected_components(states: Sequence, succ: Mapping) -> list:
    """Tarjan's algorithm, iterative.  Returns SCCs as lists of states in
    reverse topological order (successors before predecessors)."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in states:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


@dataclass(frozen=True)
class BsccDecomposition:
    bsccs: tuple            # tuple of frozensets
    transient: frozenset


def _chain_succ(chain) -> dict:
    return {s: [t for t, p in chain.rows[s].items() if p > 0.0]
            for s in chain.states}


def bsccs(chain) -> BsccDecomposition:
    """Bottom SCCs (closed SCCs) and transient states of a chain."""
    succ = _chain_succ(chain)
    comps = strongly_connected_components(chain.states, succ)
    bottoms = []
    transient = set()
    for comp in comps:
        comp_set = frozenset(comp)
        closed = all(t in comp_set for s in comp for t in succ[s])
        if closed:
            bottoms.append(comp_set)
        else:
            transient.update(comp)
    # Stable order: by smallest position of a member in chain.states.
    pos = {s: i for i, s in enumerate(chain.states)}
    bottoms.sort(key=lambda b: min(pos[s] for s in b))
    return BsccDecomposition(bsccs=tuple(bottoms),
                             transient=frozenset(transient))


# ---------------------------------------------------------------------------
# End components of a product MDP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mec:
    """Maximal end component: product state indices plus the retained pair
    ids, in ascending order.  The sub-MDP is strongly connected, every state
    keeps at least one pair, and every retained pair keeps all successor mass
    inside the state set."""

    states: frozenset
    pairs: tuple


def mec_decomposition(p) -> list:
    """Iterative SCC refinement: repeatedly drop pairs leaving their SCC and
    states with no pairs left, until a fixpoint."""
    kept = [list(p.pairs(i)) for i in range(len(p.states))]
    states = set(range(len(p.states)))

    while True:
        ordered = sorted(states)
        succ = {i: sorted({j for k in kept[i] for j in p.succ[k]
                           if j in states})
                for i in ordered}
        comp_of = {}
        for c, comp in enumerate(strongly_connected_components(ordered, succ)):
            for i in comp:
                comp_of[i] = c

        changed = False
        for i in ordered:
            stay = [k for k in kept[i]
                    if all(comp_of.get(j) == comp_of[i] for j in p.succ[k])]
            if len(stay) != len(kept[i]):
                kept[i] = stay
                changed = True
            if not stay:
                states.discard(i)
        if not changed:
            break

    # Surviving SCCs with at least one pair per state are the MECs.  A
    # singleton only counts with a self-loop pair (guaranteed: its pair set
    # is non-empty and every retained pair stays inside the component).
    ordered = sorted(states)
    succ = {i: sorted({j for k in kept[i] for j in p.succ[k]})
            for i in ordered}
    mecs = [Mec(states=frozenset(comp),
                pairs=tuple(sorted(k for i in comp for k in kept[i])))
            for comp in strongly_connected_components(ordered, succ)]
    mecs.sort(key=lambda mec: min(mec.states))
    return mecs


def _accepts(p, states, fin, inf) -> bool:
    qs = {p.states[i][1] for i in states}
    return not (qs & fin) and bool(qs & inf)


def accepting_mecs(mecs: Iterable[Mec], p) -> list:
    """Filter MECs of product ``p`` by the Rabin pair condition: no
    intersection with S x Fin_i and a non-empty intersection with S x Inf_i
    for some pair i."""
    return [mec for mec in mecs
            if any(_accepts(p, mec.states, fin, inf)
                   for fin, inf in p.dra.pairs)]


def bscc_accepting(bscc: Iterable, p) -> bool:
    """True iff some Rabin pair accepts: the BSCC (product state indices of
    ``p``) misses S x Fin_i and meets S x Inf_i."""
    return any(_accepts(p, bscc, fin, inf) for fin, inf in p.dra.pairs)
