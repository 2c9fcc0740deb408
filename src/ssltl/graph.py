"""Strongly-connected-component and end-component analysis.

Chains are any objects exposing ``states`` (ordered) and ``rows`` (state ->
{successor: probability}).  The package decomposes only policy-induced
chains, which keep just the states the policy reaches, so every BSCC is
reachable and no reachability is computed here.  End components and acceptance
work on the integer-indexed product MDP of ``ssltl.product``; an end
component, like a BSCC, is a frozenset of product state indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence


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

def mec_decomposition(p, allowed: Optional[Iterable] = None) -> list:
    """Maximal end components of the sub-MDP of product ``p`` on the state
    set ``allowed`` (default: every state), as frozensets of product state
    indices ordered by their least member.

    Iterative SCC refinement: repeatedly drop pairs with a successor outside
    their SCC and states with no pairs left, until a fixpoint.  There every
    kept pair stays inside its SCC, so the SCCs are the MECs; a singleton
    keeps a pair only if that pair is a self-loop."""
    states = set(range(len(p.states)) if allowed is None else allowed)
    kept = {i: list(p.pairs(i)) for i in states}
    while True:
        ordered = sorted(states)
        succ = {i: sorted({j for k in kept[i] for j in p.succ[k]
                           if j in states})
                for i in ordered}
        comps = strongly_connected_components(ordered, succ)
        comp_of = {i: c for c, comp in enumerate(comps) for i in comp}

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
            return sorted((frozenset(comp) for comp in comps), key=min)


def _accepts(p, states, fin, inf) -> bool:
    qs = {p.states[i][1] for i in states}
    return not (qs & fin) and bool(qs & inf)


def pair_accepting_mecs(mecs: Iterable, p) -> list:
    """Per Rabin pair i of product ``p``, the MECs of pair i's accepting
    region, given MECs of ``p``: over every given MEC, the MECs of that MEC
    without its S x Fin_i states that meet S x Inf_i.  They are the maximal
    accepting end components of pair i (Baier & Katoen 2008, de Alfaro
    1997), pairwise disjoint, each inside one given MEC.

    Given the components of ``accepting_mecs`` in place of the MECs, the
    answer is the same: each maximal accepting end component of pair i lies
    in one of them, and is maximal there too."""
    mecs = tuple(mecs)
    out = []
    for fin, inf in p.dra.pairs:
        comps = []
        for mec in mecs:
            outside = [i for i in mec if p.states[i][1] not in fin]
            comps += [ec for ec in mec_decomposition(p, outside)
                      if _accepts(p, ec, fin, inf)]
        out.append(comps)
    return out


def accepting_mecs(mecs: Iterable, p) -> list:
    """The MECs of the accepting region of product ``p``, given its MECs.

    The region is the union over the Rabin pairs i of pair i's accepting
    region (``pair_accepting_mecs``).  The program's indicator rows (xii),
    (xiii) and (xvi) range over the listed components:

    * every accepting end component E lies inside exactly one of them.  E
      is an end component of the region's sub-MDP, so some region MEC
      contains it, and the region MECs are disjoint;
    * take a verified policy, with x set to its limiting distribution.  Its
      mass lies on its BSCCs, each an accepting end component and so inside
      exactly one component.  A component carrying mass then holds a whole
      BSCC and with it a flagged copy of the shared state, so rows (xii),
      (xiii) and (xvi) admit the policy.  Overlapping components would not
      do: a BSCC inside one could put mass into another that holds no copy
      of the shared state;
    * a MEC that misses S x Fin_i and meets S x Inf_i comes back unchanged.
    """
    region = set()
    for comps in pair_accepting_mecs(mecs, p):
        for ec in comps:
            region |= ec
    return mec_decomposition(p, region)


def almost_sure_reach(p, target: Iterable) -> set:
    """The states of product ``p`` from which some policy reaches the product
    state indices ``target`` with probability 1 (de Alfaro 1997; Baier &
    Katoen 2008, ch. 10).

    Start from every state and repeat until nothing changes: keep the states
    that reach ``target`` with positive probability by pairs whose
    successors all lie among the states kept so far.  At the fixpoint the
    policy that picks, at each kept state, the pair by which the backward
    search added it never leaves the kept states and has a path of positive
    probability to ``target`` from each of them, so it reaches ``target``
    almost surely.  A dropped state has no such policy: under every policy
    it reaches an earlier dropped state with positive probability, or
    ``target`` with probability 0."""
    n = len(p.states)
    pred = [[] for _ in range(n)]
    for i in range(n):
        for k in p.pairs(i):
            for j in p.succ[k]:
                pred[j].append((i, k))
    kept = set(range(n))
    while True:
        reach = set(target)
        stack = list(reach)
        while stack:
            for i, k in pred[stack.pop()]:
                if (i not in reach and i in kept
                        and kept.issuperset(p.succ[k])):
                    reach.add(i)
                    stack.append(i)
        if reach == kept:
            return reach
        kept = reach


def bscc_accepting(bscc: Iterable, p) -> bool:
    """True iff some Rabin pair accepts: the BSCC (product state indices of
    ``p``) misses S x Fin_i and meets S x Inf_i."""
    return any(_accepts(p, bscc, fin, inf) for fin, inf in p.dra.pairs)
