"""Product construction: model x automaton MDP, policy-induced chains, and
policy IO."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from ssltl.errors import ModelError, PolicyError
from ssltl.hoa import Dra, dra_step
from ssltl.model import Lmdp


@dataclass(frozen=True)
class ProductLmdp:
    """Reachable fragment of the synchronized product, numbered once.

    State i is ``states[i] = (s, q)``; states are ordered by model state,
    then automaton node, and the automaton tracks q' = delta(q, L(s')) on
    every transition.  The (state, action) pairs of state i are ``first[i]``
    .. ``first[i + 1] - 1``, one per enabled action of s in the model's order,
    so pair k is x column k of the program.  ``succ[k]`` maps the successor
    states of pair k to their positive probabilities, ``edges`` lists the
    (i, j) pairs with i != j and positive mass in sorted order (a self-loop
    carries no reachability flow, see ``ilp.flow_increment``), and
    ``initial`` is the index of the initial state."""

    model: Lmdp
    dra: Dra
    states: tuple
    initial: int
    first: tuple
    succ: tuple
    edges: tuple

    def pairs(self, i: int) -> range:
        return range(self.first[i], self.first[i + 1])

    def actions(self, i: int) -> tuple:
        """The actions of the pairs of state i, in pair order."""
        return self.model.enabled[self.states[i][0]]

    def chosen_pair(self, i: int, pi: "Policy") -> int:
        """The pair of state i that ``pi`` picks."""
        sq = self.states[i]
        a = pi.action(sq)
        acts = self.actions(i)
        if a not in acts:
            raise PolicyError(
                f"policy picks {a!r} at {sq!r}, not enabled for {sq[0]!r}")
        return self.first[i] + acts.index(a)


def build_product(m: Lmdp, d: Dra) -> ProductLmdp:
    """Materialize only the states reachable from (s0, delta(q0, L(s0)))."""
    q_init = dra_step(d, d.initial, m.letter(m.initial, d.alphabet))
    initial = (m.initial, q_init)

    rows: dict = {}
    seen = {initial}
    frontier = [initial]
    while frontier:
        s, q = frontier.pop()
        for a in m.enabled[s]:
            row: dict = {}
            for s2, p in m.trans[(s, a)].items():
                if p <= 0.0:
                    continue
                q2 = dra_step(d, q, m.letter(s2, d.alphabet))
                row[(s2, q2)] = row.get((s2, q2), 0.0) + p
                if (s2, q2) not in seen:
                    seen.add((s2, q2))
                    frontier.append((s2, q2))
            rows[((s, q), a)] = row

    s_pos = {s: i for i, s in enumerate(m.states)}
    q_pos = {q: i for i, q in enumerate(d.nodes)}
    states = tuple(sorted(seen, key=lambda sq: (s_pos[sq[0]], q_pos[sq[1]])))
    index = {sq: i for i, sq in enumerate(states)}
    first = [0]
    succ = []
    edge_set = set()
    for i, sq in enumerate(states):
        for a in m.enabled[sq[0]]:
            row = {index[t]: p for t, p in rows[(sq, a)].items()}
            succ.append(row)
            edge_set.update((i, j) for j in row if j != i)
        first.append(len(succ))
    return ProductLmdp(model=m, dra=d, states=states, initial=index[initial],
                       first=tuple(first), succ=tuple(succ),
                       edges=tuple(sorted(edge_set)))


@dataclass(frozen=True)
class ProductLmc:
    """The chain a policy induces on a product: ``states`` are product state
    indices in ascending order and ``rows[i]`` maps successor index to
    probability."""

    states: tuple
    rows: Mapping
    initial: int


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Policy:
    """Deterministic map from product states to actions."""

    choice: Mapping

    def action(self, sq):
        try:
            return self.choice[sq]
        except KeyError:
            raise PolicyError(f"policy has no entry for product state {sq!r}")


def policy_to_json(pi: Policy) -> dict:
    return {"policy": [{"s": s, "q": q, "action": a}
                       for (s, q), a in sorted(pi.choice.items())]}


def policy_from_json(doc: dict) -> Policy:
    try:
        entries = doc["policy"]
        choice = {(e["s"], e["q"]): e["action"] for e in entries}
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed policy file: {exc}") from exc
    return Policy(choice=choice)


def save_policy(pi: Policy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(policy_to_json(pi), fh, indent=2)
        fh.write("\n")


def load_policy(path) -> Policy:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:       # not UTF-8, or not JSON
        raise ModelError(f"cannot parse policy file {path}: {exc}") from exc
    return policy_from_json(doc)


def induce_chain(p: ProductLmdp, pi: Policy) -> ProductLmc:
    """Fix the policy: row i = succ of the pair pi picks at state i,
    restricted to the states reachable under the policy."""
    rows: dict = {}
    seen = {p.initial}
    frontier = [p.initial]
    while frontier:
        i = frontier.pop()
        row = p.succ[p.chosen_pair(i, pi)]
        rows[i] = dict(row)
        for j in row:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return ProductLmc(states=tuple(sorted(seen)), rows=rows,
                      initial=p.initial)
