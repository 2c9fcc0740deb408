"""Product construction: model x automaton MDP, policy-induced chains, and
policy IO."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ssltl.errors import ModelError, PolicyError
from ssltl.hoa import Dra, dra_step
from ssltl.model import Lmdp


@dataclass(frozen=True)
class ProductLmdp:
    """Reachable fragment of the synchronized product.  States are (s, q)
    pairs; the automaton tracks q' = delta(q, L(s')) on every transition."""

    model: Lmdp
    dra: Dra
    states: tuple
    initial: tuple
    trans: Mapping     # ((s, q), a) -> {(s', q'): p}
    edges: tuple       # ((s, q), (s', q')) pairs with positive mass, sorted
    state_pos: Mapping = field(repr=False, default_factory=dict)

    def enabled_actions(self, sq) -> tuple:
        return self.model.enabled[sq[0]]


def build_product(m: Lmdp, d: Dra) -> ProductLmdp:
    """Materialize only the states reachable from (s0, delta(q0, L(s0)))."""
    q_init = dra_step(d, d.initial, m.letter(m.initial, d.alphabet))
    initial = (m.initial, q_init)

    trans: dict = {}
    seen = {initial}
    frontier = [initial]
    edge_set = set()
    while frontier:
        s, q = frontier.pop()
        for a in m.enabled[s]:
            row: dict = {}
            for s2, p in m.trans[(s, a)].items():
                if p <= 0.0:
                    continue
                q2 = dra_step(d, q, m.letter(s2, d.alphabet))
                row[(s2, q2)] = row.get((s2, q2), 0.0) + p
                edge_set.add(((s, q), (s2, q2)))
                if (s2, q2) not in seen:
                    seen.add((s2, q2))
                    frontier.append((s2, q2))
            trans[((s, q), a)] = row

    s_pos = {s: i for i, s in enumerate(m.states)}
    q_pos = {q: i for i, q in enumerate(d.nodes)}
    states = tuple(sorted(seen, key=lambda sq: (s_pos[sq[0]], q_pos[sq[1]])))
    state_pos = {sq: i for i, sq in enumerate(states)}
    edges = tuple(sorted(edge_set,
                         key=lambda e: (state_pos[e[0]], state_pos[e[1]])))
    return ProductLmdp(model=m, dra=d, states=states, initial=initial,
                       trans=trans, edges=edges, state_pos=state_pos)


@dataclass(frozen=True)
class ProductLmc:
    """A chain over product states; rows are row-stochastic."""

    states: tuple
    rows: Mapping
    initial: tuple
    model: Optional[Lmdp] = None


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
    with open(path, "r", encoding="utf-8") as fh:
        return policy_from_json(json.load(fh))


def induce_chain(p: ProductLmdp, pi: Policy) -> ProductLmc:
    """Fix the policy: row(s, q) = trans((s, q), pi(s, q)), restricted to the
    states reachable under the policy."""
    rows: dict = {}
    seen = {p.initial}
    frontier = [p.initial]
    while frontier:
        sq = frontier.pop()
        a = pi.action(sq)
        if a not in p.model.enabled[sq[0]]:
            raise PolicyError(
                f"policy picks {a!r} at {sq!r}, not enabled for {sq[0]!r}")
        row = p.trans[(sq, a)]
        rows[sq] = dict(row)
        for t in row:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    states = tuple(sq for sq in p.states if sq in seen)
    return ProductLmc(states=states, rows=rows, initial=p.initial,
                      model=p.model)
