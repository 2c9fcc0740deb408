"""Shared test utilities: an LTL-on-lasso-word evaluator used as the oracle
for automaton fixtures, labeled chains with their partitions and class sums,
random model/chain/automaton generators, small simulation helpers, and
oracles over chains, products and programs that only the tests use (chain
products, aggregation, lumpability residuals, program rows re-evaluated on a
solution, the row families the program dropped and its former acceptance
row, HOA serialization, and the exhaustive synthesizer for tiny instances).

The LTL evaluator is independent of the package: it works directly on
ultimately-periodic words by least-fixpoint iteration, so it can vouch for
the shipped HOA files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import numpy as np
from scipy import sparse

from ssltl.chain import _kernel
from ssltl.errors import ModelError, SsltlError
from ssltl.graph import bscc_accepting, strongly_connected_components
from ssltl.hoa import Dra, dra_step, letters_of
from ssltl.ilp import Columns, IlpModel, IlpRow, IlpVar, Solution, \
    column_names
from ssltl.model import PROB_TOL, Lmdp, SsLtlSpec, labeled_subset, \
    validate_lmdp
from ssltl.product import Policy, ProductLmc, ProductLmdp, build_product
from ssltl.verify import SS_BOUND_TOL, verify_policy

LUMP_ROW_TOL = 1e-12
FEASIBILITY_TOL = 1e-6


# ---------------------------------------------------------------------------
# Labeled chains and partitions
# ---------------------------------------------------------------------------

class LumpabilityError(SsltlError):
    """Aggregation found representative-dependent rows; the partition is not
    ordinarily lumpable on the given chain."""


@dataclass(frozen=True)
class Lmc:
    """Labeled Markov chain.  ``rows[s]`` maps successor to probability."""

    states: tuple
    rows: Mapping
    initial: object
    labels: Mapping = field(default_factory=dict)
    ap: tuple = ()


def validate_lmc(c: Lmc) -> Lmc:
    for s in c.states:
        total = sum(c.rows[s].values())
        if abs(total - 1.0) > PROB_TOL:
            raise ModelError(f"chain row {s!r} sums to {total!r}, expected 1")
    return c


def named_chain(p: ProductLmdp, c: ProductLmc) -> Lmc:
    """A chain induced on product ``p``, with its state indices replaced by
    their (s, q) names."""
    return Lmc(states=tuple(p.states[i] for i in c.states),
               rows={p.states[i]: {p.states[j]: prob
                                   for j, prob in row.items()}
                     for i, row in c.rows.items()},
               initial=p.states[c.initial])


@dataclass(frozen=True)
class Partition:
    """Partition of a state set; ``of`` maps state -> class id, ``classes``
    maps class id -> member set."""

    classes: Mapping
    of: Mapping

    @staticmethod
    def from_assignment(of: Mapping) -> "Partition":
        classes: dict = {}
        for s, c in of.items():
            classes.setdefault(c, set()).add(s)
        return Partition(classes={c: frozenset(v) for c, v in classes.items()},
                         of=dict(of))


def product_state_partition(states) -> Partition:
    """The canonical partition of (s, q) product states into classes [s]
    that share the model component."""
    return Partition.from_assignment({sq: sq[0] for sq in states})


def lump_distribution(dist: Mapping, p: Partition) -> dict:
    """Class mass = sum of member masses."""
    out = {c: 0.0 for c in p.classes}
    for s, mass in dist.items():
        out[p.of[s]] += mass
    return out


# ---------------------------------------------------------------------------
# LTL on lasso words
# ---------------------------------------------------------------------------
# Formulas are nested tuples:
#   ("true",), ("ap", name), ("not", f), ("and", f, g), ("or", f, g),
#   ("X", f), ("U", f, g), ("F", f), ("G", f)

def ltl_holds(formula, prefix, loop):
    """Truth of ``formula`` at position 0 of the word prefix . loop^omega.

    Positions 0..len(prefix)+len(loop)-1 with the successor of the last
    position wrapping to len(prefix).  U is evaluated as a least fixpoint of
    its one-step unfolding, which converges within N sweeps on the lasso.
    """
    word = list(prefix) + list(loop)
    n = len(word)
    assert len(loop) >= 1

    def succ(i):
        return i + 1 if i + 1 < n else len(prefix)

    def ev(f):
        op = f[0]
        if op == "true":
            return [True] * n
        if op == "ap":
            return [f[1] in word[i] for i in range(n)]
        if op == "not":
            sub = ev(f[1])
            return [not v for v in sub]
        if op == "and":
            a, b = ev(f[1]), ev(f[2])
            return [x and y for x, y in zip(a, b)]
        if op == "or":
            a, b = ev(f[1]), ev(f[2])
            return [x or y for x, y in zip(a, b)]
        if op == "X":
            sub = ev(f[1])
            return [sub[succ(i)] for i in range(n)]
        if op == "F":
            return ev(("U", ("true",), f[1]))
        if op == "G":
            return ev(("not", ("U", ("true",), ("not", f[1]))))
        if op == "U":
            a, b = ev(f[1]), ev(f[2])
            vals = [False] * n
            for _ in range(n + 1):
                changed = False
                for i in reversed(range(n)):
                    nv = b[i] or (a[i] and vals[succ(i)])
                    if nv != vals[i]:
                        vals[i] = nv
                        changed = True
                if not changed:
                    break
            return vals
        raise ValueError(f"unknown operator {op!r}")

    return ev(formula)[0]


def dra_accepts(d: Dra, prefix, loop):
    """Exact acceptance of the lasso word by the automaton: run until the
    (loop position, node) pair repeats, collect the recurring node set."""
    def step(q, letter):
        return d.delta[(q, frozenset(letter) & frozenset(d.alphabet))]

    q = d.initial
    for letter in prefix:
        q = step(q, letter)
    seen = {}
    trace = []
    pos = 0
    while (pos, q) not in seen:
        seen[(pos, q)] = len(trace)
        trace.append(q)
        q = step(q, loop[pos])
        pos = (pos + 1) % len(loop)
    cycle = set(trace[seen[(pos, q)]:])
    return any(not (cycle & fin) and (cycle & inf) for fin, inf in d.pairs)


def random_lasso(rng, ap, max_prefix=5, max_loop=5):
    letters = letters_of(ap)
    prefix = [letters[rng.integers(0, len(letters))]
              for _ in range(int(rng.integers(0, max_prefix + 1)))]
    loop = [letters[rng.integers(0, len(letters))]
            for _ in range(int(rng.integers(1, max_loop + 1)))]
    return prefix, loop


# ---------------------------------------------------------------------------
# Random structures
# ---------------------------------------------------------------------------

def random_irreducible_lmc(rng, n_states, ap=("p", "r")) -> Lmc:
    """Strictly positive kernel, hence irreducible."""
    states = tuple(f"s{i}" for i in range(n_states))
    rows = {}
    for s in states:
        raw = rng.random(n_states) + 0.05
        raw /= raw.sum()
        rows[s] = {states[j]: float(raw[j]) for j in range(n_states)}
    labels = {s: frozenset(p for p in ap if rng.random() < 0.5) for s in states}
    return validate_lmc(Lmc(states=states, rows=rows, initial=states[0],
                            labels=labels, ap=tuple(ap)))


def random_dra(rng, n_nodes, ap=("p", "r"), n_pairs=1) -> Dra:
    nodes = tuple(f"q{i}" for i in range(n_nodes))
    delta = {}
    for q in nodes:
        for letter in letters_of(ap):
            delta[(q, letter)] = nodes[int(rng.integers(0, n_nodes))]
    pairs = []
    for _ in range(n_pairs):
        fin = frozenset(q for q in nodes if rng.random() < 0.25)
        inf = frozenset(q for q in nodes if rng.random() < 0.5)
        if not inf:
            inf = frozenset([nodes[int(rng.integers(0, n_nodes))]])
        pairs.append((fin, inf))
    return Dra(nodes=nodes, initial=nodes[0], alphabet=tuple(ap), delta=delta,
               pairs=tuple(pairs))


def random_lmdp(rng, n_states, n_actions, ap=("p",), det_prob=0.5) -> Lmdp:
    """Small random MDP mixing deterministic and dense rows."""
    states = tuple(f"s{i}" for i in range(n_states))
    actions = tuple(f"a{i}" for i in range(n_actions))
    trans = {}
    for s in states:
        for a in actions:
            if rng.random() < det_prob:
                target = states[int(rng.integers(0, n_states))]
                trans[(s, a)] = {target: 1.0}
            else:
                raw = rng.random(n_states) + 0.05
                raw /= raw.sum()
                trans[(s, a)] = {states[j]: float(raw[j])
                                 for j in range(n_states)}
    labels = {s: frozenset(p for p in ap if rng.random() < 0.5)
              for s in states}
    reward = {}
    for (s, a), row in trans.items():
        r = float(rng.integers(0, 2))
        if r:
            for s2 in row:
                reward[(s, a, s2)] = r
    m = Lmdp(states=states, actions=actions,
             enabled={s: actions for s in states}, trans=trans, reward=reward,
             ap=tuple(ap), labels=labels, initial=states[0])
    return validate_lmdp(m)


def random_multichain(rng, max_states=20) -> Lmc:
    """A chain with 1-3 self-loop-heavy BSCCs plus transient states feeding
    them; self loops keep every BSCC aperiodic, so tail-averaged power
    iteration converges geometrically."""
    k = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 4)) for _ in range(k)]
    n_trans = int(rng.integers(1, max(2, max_states - sum(sizes))))
    n = sum(sizes) + n_trans
    states = tuple(f"s{i}" for i in range(n))
    rows = {}
    start = 0
    bscc_members = []
    for size in sizes:
        members = states[start:start + size]
        bscc_members.append(members)
        for s in members:
            raw = rng.random(size) + 0.2
            raw[members.index(s)] += 1.0  # self-loop weight
            raw /= raw.sum()
            rows[s] = {members[j]: float(raw[j]) for j in range(size)}
        start += size
    transient = states[start:]
    for i, s in enumerate(transient):
        # Mass onto later transient states and all BSCCs, never closing a
        # transient cycle with probability 1.
        targets = list(transient[i + 1:]) + [m[0] for m in bscc_members]
        raw = rng.random(len(targets)) + 0.05
        raw /= raw.sum()
        rows[s] = {targets[j]: float(raw[j]) for j in range(len(targets))}
    initial = transient[0] if len(transient) else states[0]
    return validate_lmc(Lmc(states=states, rows=rows, initial=initial))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def power_iteration_limit(chain, beta=None, burn_in=2000, window=200):
    """Tail-averaged power iteration: average of beta T^n over the last
    ``window`` steps before ``burn_in``.  Exact for aperiodic BSCCs up to
    geometric mixing error; the window also averages out short periods."""
    states = list(chain.states)
    idx = {s: i for i, s in enumerate(states)}
    t = np.zeros((len(states), len(states)))
    for s in states:
        for s2, p in chain.rows[s].items():
            t[idx[s], idx[s2]] = p
    x = np.zeros(len(states))
    if beta is None:
        x[idx[chain.initial]] = 1.0
    else:
        for s, mass in beta.items():
            x[idx[s]] = mass
    acc = np.zeros_like(x)
    for step in range(burn_in):
        x = x @ t
        if step >= burn_in - window:
            acc += x
    acc /= window
    return {s: float(acc[idx[s]]) for s in states}


def simulate_steps(chain, n_steps, rng, key_order=None):
    """Sample a trajectory; successors are ordered by ``key_order`` (defaults
    to the chain's state order) so that two chains with corresponding rows
    produce corresponding paths from equal uniform draws."""
    if key_order is None:
        key_order = {s: i for i, s in enumerate(chain.states)}
    path = [chain.initial]
    cur = chain.initial
    for _ in range(n_steps):
        row = sorted(chain.rows[cur].items(), key=lambda kv: key_order[kv[0]])
        u = rng.random()
        total = 0.0
        nxt = row[-1][0]
        for s2, p in row:
            total += p
            if u < total:
                nxt = s2
                break
        path.append(nxt)
        cur = nxt
    return path


def product_chain(c: Lmc, d: Dra) -> Lmc:
    """Product of a labeled chain with an automaton (no actions involved),
    over (s, q) states."""
    def letter(s):
        return frozenset(c.labels.get(s, frozenset())) & frozenset(d.alphabet)

    initial = (c.initial, dra_step(d, d.initial, letter(c.initial)))
    rows: dict = {}
    seen = {initial}
    frontier = [initial]
    while frontier:
        s, q = frontier.pop()
        row: dict = {}
        for s2, p in c.rows[s].items():
            if p <= 0.0:
                continue
            q2 = dra_step(d, q, letter(s2))
            row[(s2, q2)] = row.get((s2, q2), 0.0) + p
            if (s2, q2) not in seen:
                seen.add((s2, q2))
                frontier.append((s2, q2))
        rows[(s, q)] = row

    s_pos = {s: i for i, s in enumerate(c.states)}
    q_pos = {q: i for i, q in enumerate(d.nodes)}
    states = tuple(sorted(seen, key=lambda sq: (s_pos[sq[0]], q_pos[sq[1]])))
    return Lmc(states=states, rows=rows, initial=initial)


def aggregate(c: Lmc) -> Lmc:
    """Collapse classes [s] = {(s, q)} of a chain over (s, q) states to an
    original-state chain, its states in sorted order.

    Each class row is computed from a representative by summing over target
    classes; representative-independence is asserted (all members must give
    equal rows within 1e-12), turning ordinary lumpability into a runtime
    check rather than a trusted fact.
    """
    classes: dict = {}
    for sq in c.states:
        classes.setdefault(sq[0], []).append(sq)

    order = sorted(classes)
    rows: dict = {}
    for s in order:
        members = classes[s]
        lumped_rows = []
        for member in members:
            lumped: dict = {}
            for (s2, _), p in c.rows[member].items():
                lumped[s2] = lumped.get(s2, 0.0) + p
            lumped_rows.append(lumped)
        base = lumped_rows[0]
        for other, member in zip(lumped_rows[1:], members[1:]):
            keys = set(base) | set(other)
            for k in keys:
                if abs(base.get(k, 0.0) - other.get(k, 0.0)) > LUMP_ROW_TOL:
                    raise LumpabilityError(
                        f"class [{s}] rows differ between representatives "
                        f"{members[0]!r} and {member!r} at target {k!r}: "
                        f"{base.get(k, 0.0)!r} vs {other.get(k, 0.0)!r}")
        rows[s] = base

    return Lmc(states=tuple(order), rows=rows, initial=c.initial[0])


def check_lumpable(chain, p: Partition) -> float:
    """Max over classes and member pairs (alpha, beta) of the sup-norm of
    (e_alpha - e_beta) T V; 0 (up to 1e-12) iff ordinarily lumpable."""
    states, idx, t = _kernel(chain)
    class_ids = sorted(p.classes, key=str)
    col = {c: j for j, c in enumerate(class_ids)}
    v = np.zeros((len(states), len(class_ids)))
    for s in states:
        v[idx[s], col[p.of[s]]] = 1.0
    tv = t @ v
    worst = 0.0
    for c in class_ids:
        members = [s for s in states if p.of[s] == c]
        for i in range(1, len(members)):
            diff = np.max(np.abs(tv[idx[members[0]]] - tv[idx[members[i]]]))
            worst = max(worst, float(diff))
    return worst


# ---------------------------------------------------------------------------
# Programs and solutions
# ---------------------------------------------------------------------------

def binaries(model: IlpModel) -> list:
    """LP names of the binary columns, in column order."""
    names = column_names(model)
    return [names[j] for j, v in enumerate(model.variables) if v.binary]


def check_solution(model: IlpModel, sol: Solution,
                   tol: float = FEASIBILITY_TOL) -> float:
    """Re-evaluate every constraint row; returns the maximum violation."""
    values = sol.values
    worst = 0.0
    for row in model.rows:
        val = sum(coef * values[j] for coef, j in row.terms)
        if row.sense == "<=":
            viol = val - row.rhs
        elif row.sense == ">=":
            viol = row.rhs - val
        else:
            viol = abs(val - row.rhs)
        worst = max(worst, viol)
    for j, v in enumerate(model.variables):
        worst = max(worst, v.lb - values[j], values[j] - v.ub)
    return worst


def assert_same_highs_program(ours: tuple, theirs: tuple) -> None:
    """Two ``run_milp`` argument tuples hand HiGHS the same program: the
    cost, row bounds, column bounds and integrality byte for byte, and the
    same column-wise matrix, less explicit zeros (``ilp.highs_arrays`` keeps
    the ``0 x`` term of a row without terms, HiGHS's LP reader drops it)."""
    assert len(ours) == len(theirs) == 9
    for i in (0, 4, 5, 6, 7, 8):
        assert ours[i].dtype == theirs[i].dtype
        assert ours[i].shape == theirs[i].shape
        assert ours[i].tobytes() == theirs[i].tobytes()
    matrices = []
    for rows, cols, vals in (ours[1:4], theirs[1:4]):
        assert (rows.dtype, cols.dtype, vals.dtype) == (
            np.int64, np.int64, np.float64)
        a = sparse.csc_array((vals, (rows, cols)),
                             shape=(len(ours[4]), len(ours[0])))
        a.eliminate_zeros()
        matrices.append(a)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(matrices[0], part),
                              getattr(matrices[1], part))


def fix_policy(model: IlpModel, pi: Policy) -> IlpModel:
    """Pin the policy binaries to a given deterministic policy (used to ask
    the solver for a feasibility certificate of a known policy)."""
    p = model.product
    pi0 = Columns(p).pi0
    extra = []
    for i, sq in enumerate(p.states):
        for a, k in zip(p.actions(i), p.pairs(i)):
            want = 1.0 if pi.choice.get(sq) == a else 0.0
            extra.append(IlpRow(f"c_fix_{k}", ((1.0, pi0 + k),), "=", want))
    return replace(model, rows=model.rows + tuple(extra))


def self_loops(p: ProductLmdp) -> list:
    """The states i with a self-loop (i, i), in order."""
    return [i for i in range(len(p.states))
            if any(i in p.succ[k] for k in p.pairs(i))]


def with_self_loop_flows(model: IlpModel) -> IlpModel:
    """The program with a flow column for every self-loop (i, i), as it was
    built before self-loops left ``ProductLmdp.edges``: per self-loop, in
    the order of ``self_loops``, one f column appended after the last one,
    with its row (v), f <= the binaries of i's pairs that have the loop,
    appended after the last row, and the column on the inflow side of row
    (vii) of i.  Its in and out terms of row (vi) cancel.  An oracle for the
    claim that dropping these columns changes no solution's (pi, x, isq)
    (see ``ilp.flow_increment``)."""
    p = model.product
    pi0 = Columns(p).pi0
    loop_col = {i: len(model.variables) + r
                for r, i in enumerate(self_loops(p))}
    rows = []
    for row in model.rows:
        i = int(row.name[6:]) if row.name.startswith("c_vii_") else None
        if i in loop_col:
            row = replace(row, terms=((1.0, loop_col[i]),) + row.terms)
        rows.append(row)
    for i, j in loop_col.items():
        terms = [(1.0, j)]
        terms += [(-1.0, pi0 + k) for k in p.pairs(i) if i in p.succ[k]]
        rows.append(IlpRow(f"c_v_loop_{i}", tuple(terms), "<=", 0.0))
    loops = (IlpVar(0.0, 1.0, False),) * len(loop_col)
    return replace(model, variables=model.variables + loops,
                   rows=tuple(rows))


def with_rows_viii(model: IlpModel) -> IlpModel:
    """The program with its self-loop flows (``with_self_loop_flows``) and
    rows (viii), outflow >= inflow / 2 at every product state, appended.  A
    self-loop's f counts on both sides, with net coefficient 1/2.  An oracle
    for the claim that the program admits no fewer policies without them
    (see ``ilp.flow_increment``)."""
    p = model.product
    cols = Columns(p, len(model.amecs))
    loop_col = {i: len(model.variables) + r
                for r, i in enumerate(self_loops(p))}
    model = with_self_loop_flows(model)
    extra = []
    for i in range(len(p.states)):
        terms = [(1.0, cols.f0 + e) for e, (a, _) in enumerate(p.edges)
                 if a == i]
        terms += [(-0.5, cols.f0 + e) for e, (_, b) in enumerate(p.edges)
                  if b == i]
        if i in loop_col:
            terms.append((0.5, loop_col[i]))
        extra.append(IlpRow(f"c_viii_{i}", tuple(terms), ">=", 0.0))
    return replace(model, rows=model.rows + tuple(extra))



def with_union_acceptance_row(model: IlpModel) -> IlpModel:
    """The program with row (xi) summing x over every pair of a state in S x
    (the union of the Inf sets), in place of the pairs some Rabin pair can
    accept.  An oracle for the claim that the program's row (xi) admits
    only policies this row admits: its terms are a subset of these."""
    p = model.product
    inf = frozenset().union(*(inf for _, inf in p.dra.pairs))
    terms = tuple((1.0, k) for i, (_, q) in enumerate(p.states) if q in inf
                  for k in p.pairs(i))
    return replace(model, rows=tuple(
        replace(row, terms=terms) if row.name == "c_xi_0" else row
        for row in model.rows))

def with_iks_block(model: IlpModel) -> IlpModel:
    """The program with the shared-state condition encoded through an
    auxiliary block, as an oracle for rows (xiii): one binary iks_ct per
    accepting component c and model state t (columns appended after the
    last one), rows (xiii) iks_ct <= sum of isq over c's copies of t, and
    rows (xv) is_t - 1 <= sum_c (iks_ct - ik_c) / K for K components, in
    place of the program's rows (xiii), is_t + ik_c - that sum <= 1.

    With one component, projecting iks out (iks_ct = min(1, the sum)) gives
    the program's rows exactly, in integers and in the LP relaxation.  With
    K >= 2 the program's rows are the disaggregation of (xv): never looser,
    since averaging them over c gives (xv)."""
    p = model.product
    k = len(model.amecs)
    cols = Columns(p, k)
    n_s = len(p.model.states)
    iks0 = cols.end
    block = []
    for c, amec in enumerate(model.amecs):
        for t, s in enumerate(p.model.states):
            terms = [(1.0, iks0 + c * n_s + t)]
            terms += [(-1.0, cols.isq0 + i) for i in sorted(amec)
                      if p.states[i][0] == s]
            block.append(IlpRow(f"c_xiii_{c * n_s + t}", tuple(terms), "<=",
                                0.0))
    for t in range(n_s):
        terms = [(1.0, cols.is0 + t)]
        for c in range(k):
            terms += [(-1.0 / k, iks0 + c * n_s + t), (1.0 / k, cols.ik0 + c)]
        block.append(IlpRow(f"c_xv_{t}", tuple(terms), "<=", 1.0))
    at = next(r for r, row in enumerate(model.rows)
              if row.name.startswith("c_xiii_"))
    rest = tuple(row for row in model.rows[at:]
                 if not row.name.startswith("c_xiii_"))
    iks = (IlpVar(0.0, 1.0, True),) * (k * n_s)
    return replace(model, variables=model.variables + iks,
                   rows=model.rows[:at] + tuple(block) + rest)


def policy_identity_residual(sol: Solution, p: ProductLmdp, pi: Policy,
                             states) -> float:
    """Max over the given product state indices and their actions of
    |x_sqa - [a == pi(sq)] * sum_a x_sqa| from the solver assignment."""
    worst = 0.0
    for i in states:
        xs = [sol.values[k] for k in p.pairs(i)]
        total = sum(xs)
        for a, x in zip(p.actions(i), xs):
            indicator = 1.0 if pi.choice.get(p.states[i]) == a else 0.0
            worst = max(worst, abs(x - indicator * total))
    return worst


# ---------------------------------------------------------------------------
# Reconstructed fixtures
# ---------------------------------------------------------------------------

def mirrored_bscc_fixture():
    """A 9-state product-shaped chain with two identical 4-state BSCCs and a
    transient start splitting mass 1/2 each way, together with the 3-state
    chain it aggregates to.

    Within each BSCC the copies of s1 carry stationary mass 1/3 and the
    copies of s2 carry 1/6, so the limiting distribution from the transient
    start is 1/6 per (s1, .) state and 1/12 per (s2, .) state, and the class
    sums give (0, 2/3, 1/3).
    """
    half = 0.5
    t0 = ("s0", "q0")
    rows = {
        t0: {("s1", "q0"): half, ("s1", "q2"): half},
        # first BSCC over automaton nodes q0, q1
        ("s1", "q0"): {("s1", "q1"): half, ("s2", "q0"): half},
        ("s1", "q1"): {("s1", "q0"): half, ("s2", "q1"): half},
        ("s2", "q0"): {("s1", "q1"): 1.0},
        ("s2", "q1"): {("s1", "q0"): 1.0},
        # second BSCC over automaton nodes q2, q3
        ("s1", "q2"): {("s1", "q3"): half, ("s2", "q2"): half},
        ("s1", "q3"): {("s1", "q2"): half, ("s2", "q3"): half},
        ("s2", "q2"): {("s1", "q3"): 1.0},
        ("s2", "q3"): {("s1", "q2"): 1.0},
    }
    states = (t0,
              ("s1", "q0"), ("s1", "q1"), ("s1", "q2"), ("s1", "q3"),
              ("s2", "q0"), ("s2", "q1"), ("s2", "q2"), ("s2", "q3"))
    product = Lmc(states=states, rows=rows, initial=t0)

    original = Lmc(
        states=("s0", "s1", "s2"),
        rows={"s0": {"s1": 1.0},
              "s1": {"s1": 0.5, "s2": 0.5},
              "s2": {"s1": 1.0}},
        initial="s0")
    return product, original


def six_state_until_lmdp() -> Lmdp:
    """Six-state deterministic LMDP with labels b on s1/s2 and a on s3/s4;
    paired with the (F a) U b automaton its product has a unique accepting
    MEC, and the policy s0->a2, s3->a1, s4->a2, s2->a3 is trapped in it."""
    states = tuple(f"s{i}" for i in range(6))
    actions = ("a1", "a2", "a3")
    det = {
        "s0": {"a1": "s1", "a2": "s3", "a3": "s0"},
        "s1": {"a1": "s2", "a2": "s0", "a3": "s1"},
        "s2": {"a1": "s1", "a2": "s0", "a3": "s2"},
        "s3": {"a1": "s4", "a2": "s0", "a3": "s3"},
        "s4": {"a1": "s3", "a2": "s2", "a3": "s4"},
        "s5": {"a1": "s5", "a2": "s5", "a3": "s5"},
    }
    trans = {(s, a): {t: 1.0} for s, row in det.items() for a, t in row.items()}
    labels = {"s0": frozenset(), "s1": frozenset(["b"]), "s2": frozenset(["b"]),
              "s3": frozenset(["a"]), "s4": frozenset(["a"]),
              "s5": frozenset()}
    return validate_lmdp(Lmdp(
        states=states, actions=actions,
        enabled={s: actions for s in states}, trans=trans, reward={},
        ap=("a", "b"), labels=labels, initial="s0"))


# ---------------------------------------------------------------------------
# Automaton serialization
# ---------------------------------------------------------------------------

def to_hoa(d: Dra) -> str:
    """Serialize with one explicit edge per letter; parse(to_hoa(d)) is
    isomorphic to d under the identity node mapping."""
    n = len(d.nodes)
    node_index = {q: i for i, q in enumerate(d.nodes)}
    out = ["HOA: v1", f"States: {n}", f"Start: {node_index[d.initial]}"]
    ap_names = " ".join(f'"{p}"' for p in d.alphabet)
    out.append(f"AP: {len(d.alphabet)}" + (f" {ap_names}" if ap_names else ""))
    out.append(f"acc-name: Rabin {len(d.pairs)}")
    formula = " | ".join(f"(Fin({2 * k}) & Inf({2 * k + 1}))"
                         for k in range(len(d.pairs)))
    if len(d.pairs) == 1:
        formula = f"Fin(0) & Inf(1)"
    out.append(f"Acceptance: {2 * len(d.pairs)} {formula}")
    out.append("--BODY--")
    letters = letters_of(d.alphabet)
    for q in d.nodes:
        sets = []
        for k, (fin, inf) in enumerate(d.pairs):
            if q in fin:
                sets.append(2 * k)
            if q in inf:
                sets.append(2 * k + 1)
        suffix = (" {" + " ".join(str(x) for x in sorted(sets)) + "}") if sets else ""
        out.append(f"State: {node_index[q]}{suffix}")
        for letter in letters:
            if not d.alphabet:
                expr = "t"
            else:
                expr = " & ".join(
                    ("" if d.alphabet[i] in letter else "!") + str(i)
                    for i in range(len(d.alphabet)))
            out.append(f"[{expr}] {node_index[d.delta[(q, letter)]]}")
    out.append("--END--")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Exhaustive synthesis
# ---------------------------------------------------------------------------

class EnumerationLimitError(SsltlError):
    """Instance exceeds the exhaustive-enumeration bound."""


def brute_force_synth(m: Lmdp, d: Dra, spec: SsLtlSpec,
                      max_states: int = 12,
                      max_actions: int = 3) -> Optional[Policy]:
    """Exhaustive search over deterministic product policies.

    Enumerates assignments over policy-reachable states only (states never
    reached under the partial choice cannot influence the verdict), in action
    order at each decision point, visiting decision states in product order;
    unreached states are completed with their first enabled action.  The
    first verifying policy under this deterministic schedule is returned.
    """
    p = build_product(m, d)
    if len(p.states) > max_states:
        raise EnumerationLimitError(
            f"{len(p.states)} reachable product states exceed the "
            f"enumeration bound {max_states}")
    if any(len(m.enabled[s]) > max_actions for s in m.states):
        raise EnumerationLimitError(
            f"an action set exceeds the enumeration bound {max_actions}")

    def pending(choice):
        """The lowest state reachable under the partial assignment (state ->
        pair) that still needs a decision, or None."""
        seen = {p.initial}
        stack = [p.initial]
        lowest = None
        while stack:
            i = stack.pop()
            k = choice.get(i)
            if k is None:
                if lowest is None or i < lowest:
                    lowest = i
                continue
            for j in p.succ[k]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return lowest

    choice: dict = {}

    def search() -> Optional[Policy]:
        i = pending(choice)
        if i is None:
            pi = Policy(choice={
                sq: p.actions(j)[choice[j] - p.first[j] if j in choice else 0]
                for j, sq in enumerate(p.states)})
            report = verify_policy(m, d, spec, pi, product=p)
            return pi if report.verdict else None
        for k in p.pairs(i):
            choice[i] = k
            found = search()
            if found is not None:
                return found
            del choice[i]
        return None

    return search()


# ---------------------------------------------------------------------------
# Exact reward of deterministic grids
# ---------------------------------------------------------------------------

def best_lasso_reward(m: Lmdp, d: Dra, spec: SsLtlSpec) -> Optional[float]:
    """The best long-run reward of a policy that passes verification, for a
    model whose every move is deterministic, or None if no policy passes.

    A deterministic policy then reaches exactly one lasso from the initial
    product state: its chain's one BSCC is the lasso's cycle, which the
    limiting distribution spreads evenly.  The cycles of the lassos are the
    simple cycles of the product (one pair per state): every product state
    is reachable, and a shortest path to a cycle meets it only at its end.
    So this enumerates the simple cycles, each once from its lowest state
    within its strongly connected component, keeps those that are
    Rabin-accepting (``graph.bscc_accepting``) and meet every steady-state
    interval, and returns the best mean reward of theirs."""
    p = build_product(m, d)
    members = [labeled_subset(m, iv.formula) for iv in spec.ss]
    succ = {i: [j for k in p.pairs(i) for j in p.succ[k]]
            for i in range(len(p.states))}
    component = {i: c for c, scc in enumerate(
        strongly_connected_components(range(len(p.states)), succ))
        for i in scc}
    best = None
    path, rewards = [], []      # the cycle so far, the reward of each step

    def accepted(cycle: list) -> bool:
        model_states = [p.states[i][0] for i in cycle]
        return bscc_accepting(cycle, p) and all(
            iv.lower - SS_BOUND_TOL
            <= sum(s in member for s in model_states) / len(cycle)
            <= iv.upper + SS_BOUND_TOL
            for iv, member in zip(spec.ss, members))

    def walk(root: int, i: int) -> None:
        nonlocal best
        path.append(i)
        s = p.states[i][0]
        for k, a in zip(p.pairs(i), p.actions(i)):
            (j,) = p.succ[k]
            if j < root or component[j] != component[root] or (
                    j != root and j in path):
                continue
            rewards.append(sum(prob * m.reward_value(s, a, s2)
                               for s2, prob in m.trans[(s, a)].items()))
            if j != root:
                walk(root, j)
            elif best is None or sum(rewards) / len(path) > best:
                if accepted(path):
                    best = sum(rewards) / len(path)
            rewards.pop()
        path.pop()

    for root in range(len(p.states)):
        walk(root, root)
    return best
