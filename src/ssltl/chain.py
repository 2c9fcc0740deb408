"""Numerical Markov-chain analysis: stationary distributions and multichain
limiting distributions.  The limiting distribution takes the chain's BSCC
decomposition from its caller, so a verified candidate's chain is
decomposed once.

Everything uses dense direct solves; the models here stay well below a few
thousand states, where determinism beats sparse machinery.
"""

from __future__ import annotations

import numpy as np

from ssltl.errors import ModelError

STATIONARY_RESIDUAL_TOL = 1e-10
MASS_TOL = 1e-9


def _kernel(chain, states=None):
    states = list(chain.states) if states is None else list(states)
    idx = {s: i for i, s in enumerate(states)}
    t = np.zeros((len(states), len(states)))
    for s in states:
        for s2, p in chain.rows[s].items():
            if s2 in idx:
                t[idx[s], idx[s2]] = p
    return states, idx, t


def stationary(chain, states=None) -> dict:
    """Unique stationary distribution of an irreducible chain, or of its
    closed irreducible subset ``states``: solve x T = x, sum(x) = 1 by dense
    LU with the normalization row replacing one equation.
    """
    states, _, t = _kernel(chain, states)
    n = len(states)
    a = t.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"singular stationary system: {exc}") from exc
    residual = np.max(np.abs(x @ t - x))
    if residual > STATIONARY_RESIDUAL_TOL or np.any(x < -1e-9):
        raise ModelError(
            f"stationary solve residual {residual:g}; chain is likely not "
            "irreducible")
    return {s: float(x[i]) for i, s in enumerate(states)}


def limiting_distribution(chain, dec) -> dict:
    """Cesaro limit of T^n from the chain's initial state, given the chain's
    BSCC decomposition ``dec`` (``ssltl.graph.bsccs``): absorption
    probability into each BSCC times that BSCC's stationary distribution;
    transient states carry 0.
    """
    bscc_of = {s: j for j, b in enumerate(dec.bsccs) for s in b}
    transient = [s for s in chain.states if s in dec.transient]
    t_idx = {s: i for i, s in enumerate(transient)}
    k = len(dec.bsccs)

    # Absorption probabilities h[t][j]: from transient t into BSCC j.
    h = np.zeros((len(transient), k))
    if transient:
        z = np.zeros((len(transient), len(transient)))
        w = np.zeros((len(transient), k))
        for s in transient:
            for s2, p in chain.rows[s].items():
                if s2 in t_idx:
                    z[t_idx[s], t_idx[s2]] += p
                else:
                    w[t_idx[s], bscc_of[s2]] += p
        try:
            h = np.linalg.solve(np.eye(len(transient)) - z, w)
        except np.linalg.LinAlgError as exc:
            raise ModelError(
                f"singular transient absorption system: {exc}") from exc

    weight = np.zeros(k)
    if chain.initial in t_idx:
        weight += h[t_idx[chain.initial]]
    else:
        weight[bscc_of[chain.initial]] = 1.0

    out = {s: 0.0 for s in chain.states}
    for j, b in enumerate(dec.bsccs):
        if weight[j] <= 0.0:
            continue
        pi = stationary(chain, [s for s in chain.states if s in b])
        for s, p in pi.items():
            out[s] = float(weight[j] * p)
    total = sum(out.values())
    if abs(total - 1.0) > MASS_TOL:
        raise ModelError(f"limiting distribution mass {total!r} != 1")
    return out
