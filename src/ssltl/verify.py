"""Independent verification oracle: given (model, automaton, spec, policy),
decide whether the induced original chain is a unichain meeting every
steady-state interval with all long-run behavior accepting.

This module never touches the optimization layer; it re-derives everything
from the chain itself, so it can act as ground truth for solver results.
Each candidate's chain is induced and BSCC-decomposed once; the report
carries the chain and its BSCCs, which the rejection cuts read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ssltl.chain import limiting_distribution
from ssltl.graph import bscc_accepting, bsccs
from ssltl.hoa import Dra
from ssltl.model import Lmdp, SsLtlSpec, labeled_subset
from ssltl.product import Policy, ProductLmc, ProductLmdp, build_product, \
    induce_chain

SS_BOUND_TOL = 1e-6


@dataclass(frozen=True)
class SsResult:
    formula: str
    lower: float
    upper: float
    mass: float
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    chain: ProductLmc
    bsccs: tuple            # product-index frozensets, in rabin_ok order
    rabin_ok: tuple
    shared_state: Optional[str]
    unichain: bool
    ss_results: tuple
    product_distribution: dict
    aggregate_distribution: dict
    verdict: bool

    def to_json(self) -> dict:
        return {
            "product_bsccs": {"count": len(self.bsccs),
                              "sizes": [len(b) for b in self.bsccs]},
            "rabin_ok": list(self.rabin_ok),
            "shared_state": self.shared_state,
            "unichain": self.unichain,
            "ss": [{"formula": r.formula, "lower": r.lower, "upper": r.upper,
                    "mass": r.mass, "ok": r.ok} for r in self.ss_results],
            "product_distribution": [
                {"s": s, "q": q, "p": p}
                for (s, q), p in sorted(self.product_distribution.items())],
            "aggregate_distribution": [
                {"s": s, "p": p}
                for s, p in sorted(self.aggregate_distribution.items())],
            "verdict": self.verdict,
        }


def verify_policy(m: Lmdp, d: Dra, spec: SsLtlSpec, pi: Policy,
                  product: Optional[ProductLmdp] = None) -> VerificationReport:
    """Induce the product chain, decompose its BSCCs, check Rabin acceptance
    of every reachable BSCC, the shared-original-state condition (which makes
    the aggregated chain a unichain), and each steady-state interval on the
    limiting distribution summed by model state."""
    p = product if product is not None else build_product(m, d)
    chain = induce_chain(p, pi)
    dec = bsccs(chain)

    # induce_chain restricts to policy-reachable states, so every BSCC here
    # is reachable; absorption into their union has probability one.
    rabin_ok = tuple(bscc_accepting(b, p) for b in dec.bsccs)

    in_bscc = [{p.states[i][0] for i in b} for b in dec.bsccs]
    shared_state = next((s for s in m.states
                         if all(s in seen for seen in in_bscc)), None)
    unichain = shared_state is not None

    dist = limiting_distribution(chain, dec)
    aggregate = {s: 0.0 for s in m.states}
    for i, mass in dist.items():
        aggregate[p.states[i][0]] += mass

    ss_results = []
    for interval in spec.ss:
        member = labeled_subset(m, interval.formula)
        # in model-state order, so that the last bits do not follow hashing
        mass = sum(v for s, v in aggregate.items() if s in member)
        ok = (interval.lower - SS_BOUND_TOL <= mass
              <= interval.upper + SS_BOUND_TOL)
        ss_results.append(SsResult(formula=interval.source,
                                   lower=interval.lower,
                                   upper=interval.upper, mass=mass, ok=ok))

    verdict = (all(rabin_ok) and unichain
               and all(r.ok for r in ss_results))
    return VerificationReport(
        chain=chain,
        bsccs=dec.bsccs,
        rabin_ok=rabin_ok,
        shared_state=shared_state,
        unichain=unichain,
        ss_results=tuple(ss_results),
        product_distribution={p.states[i]: mass
                              for i, mass in dist.items()},
        aggregate_distribution=aggregate,
        verdict=verdict)
