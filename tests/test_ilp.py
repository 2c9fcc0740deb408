import itertools
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from helpers import assert_same_highs_program, binaries, check_solution, \
    fix_policy, random_dra, random_lmdp, six_state_until_lmdp, \
    with_iks_block, with_rows_viii, with_self_loop_flows, \
    with_union_acceptance_row
from ssltl.errors import ModelError, NoAcceptingStructureError, PolicyError
from ssltl.graph import accepting_mecs, mec_decomposition
from ssltl.hoa import Dra, letters_of, load_hoa, parse_hoa
from ssltl import ilp, milp_shim
from ssltl.ilp import (
    Columns,
    IlpConfig,
    Solution,
    SolverConfig,
    build_program,
    column_names,
    default_solver_command,
    export_lp,
    extract_policy,
    flow_increment,
    highs_arrays,
    parse_solution_text,
    solve,
)
from ssltl.model import GridSpec, Lmdp, generate_grid, load_spec, \
    spec_from_json, validate_lmdp
from ssltl.product import Policy, build_product, induce_chain
from ssltl.synthesis import _rejection_cuts, synthesize
from ssltl.verify import verify_policy
from test_synthesis import oracle_instance

TRUE_DRA = parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[t] 0
--END--
""")


def cycle3_dra(ap=("a",)):
    """Three nodes cycling on every letter; with a single trivially accepting
    pair the full grid x node space is reachable and accepting."""
    nodes = ("q0", "q1", "q2")
    delta = {(q, letter): nodes[(i + 1) % 3]
             for i, q in enumerate(nodes) for letter in letters_of(ap)}
    return Dra(nodes=nodes, initial="q0", alphabet=ap, delta=delta,
               pairs=((frozenset(), frozenset(nodes)),))


def no_ss_spec():
    return spec_from_json({"dra": "unused.hoa", "ss": []})


def one_interval_spec(formula="d", lower=0.01, upper=0.5):
    return spec_from_json({"dra": "unused.hoa",
                           "ss": [{"formula": formula, "lower": lower,
                                   "upper": upper}]})


def build_for(m, d, spec, cfg=None):
    p = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(p), p)
    return build_program(p, amecs, spec, cfg or IlpConfig())


def two_absorbing_model():
    return validate_lmdp(Lmdp(
        states=("s0", "s1", "s2"), actions=("go1", "go2"),
        enabled={"s0": ("go1", "go2"), "s1": ("go1", "go2"),
                 "s2": ("go1", "go2")},
        trans={("s0", "go1"): {"s1": 1.0}, ("s0", "go2"): {"s2": 1.0},
               ("s1", "go1"): {"s1": 1.0}, ("s1", "go2"): {"s1": 1.0},
               ("s2", "go1"): {"s2": 1.0}, ("s2", "go2"): {"s2": 1.0}},
        reward={}, ap=("p", "r"),
        labels={"s0": frozenset(), "s1": frozenset(["p"]),
                "s2": frozenset(["r"])},
        initial="s0"))


# ---------------------------------------------------------------------------
# Program shape
# ---------------------------------------------------------------------------

def test_variable_counts_grid_product():
    m = generate_grid(GridSpec(4, 4, seed=2))
    d = cycle3_dra(ap=("a",))
    p = build_product(m, d)
    assert len(p.states) == 48
    model = build_for(m, d, one_interval_spec())
    names = column_names(model)
    xs = [n for n in names if n.startswith("x_")]
    pis = [n for n in names if n.startswith("pi_")]
    fs = [n for n in names if n.startswith("f_")]
    assert len(xs) == 192 and len(pis) == 192
    assert len(fs) == len(p.edges)
    assert len(set(names)) == len(names) == len(model.variables)


def test_one_interval_gives_two_rows():
    m = generate_grid(GridSpec(4, 4, seed=2))
    model = build_for(m, cycle3_dra(), one_interval_spec())
    ss_rows = [r for r in model.rows if r.name.startswith("c_x_")]
    assert len(ss_rows) == 2
    assert ss_rows[0].sense == ">=" and ss_rows[0].rhs == 0.01
    assert ss_rows[1].sense == "<=" and ss_rows[1].rhs == 0.5


def test_indicator_counts_two_amecs():
    """One ik per accepting component and one row (xiii) per component and
    model state, is_t + ik_c - the flags of c's copies of t <= 1; no
    auxiliary column and no row (xv)."""
    m = two_absorbing_model()
    model = build_for(m, TRUE_DRA, no_ss_spec())
    p = model.product
    assert [sorted(p.states[i] for i in c) for c in model.amecs] == [
        [("s1", "q0")], [("s2", "q0")]]
    names = column_names(model)
    assert [n for n in names if n.startswith("ik_")] == ["ik_0", "ik_1"]
    assert not [n for n in names if n.startswith("iks_")]
    assert not [r for r in model.rows if r.name.startswith("c_xv_")]
    xiii = {r.name: r for r in model.rows if r.name.startswith("c_xiii_")}
    assert len(xiii) == 6
    cols = Columns(p, 2)
    s2 = p.states.index(("s2", "q0"))
    assert xiii["c_xiii_2"].terms == ((1.0, cols.is0 + 2), (1.0, cols.ik0))
    assert xiii["c_xiii_5"].terms == ((1.0, cols.is0 + 2),
                                      (1.0, cols.ik0 + 1),
                                      (-1.0, cols.isq0 + s2))
    assert all(r.sense == "<=" and r.rhs == 1.0 for r in xiii.values())


def test_empty_amec_list_structurally_infeasible():
    # dead automaton: single pair whose Fin covers everything
    nodes = ("q0",)
    d = Dra(nodes=nodes, initial="q0", alphabet=(),
            delta={("q0", frozenset()): "q0"},
            pairs=((frozenset(nodes), frozenset(nodes)),))
    m = two_absorbing_model()
    p = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(p), p)
    assert amecs == []
    with pytest.raises(NoAcceptingStructureError):
        build_program(p, amecs, no_ss_spec())


def chain_product(n, p_go=1.0):
    """The product of s0 .. s{n-1} with TRUE_DRA: 'go' moves on with
    probability ``p_go`` and stays otherwise; the last state absorbs."""
    states = tuple(f"s{i}" for i in range(n))
    trans = {(s, "go"): {s: 1.0 - p_go, nxt: p_go}
             for s, nxt in zip(states, states[1:])}
    trans[(states[-1], "go")] = {states[-1]: 1.0}
    m = validate_lmdp(Lmdp(
        states=states, actions=("go",), enabled={s: ("go",) for s in states},
        trans=trans, reward={}, ap=(), labels={s: frozenset() for s in states},
        initial="s0"))
    return build_product(m, TRUE_DRA)


def test_epsilon_default_shrinks_with_product():
    assert flow_increment(chain_product(10)) == pytest.approx(1e-4)
    assert flow_increment(chain_product(10_000)) == pytest.approx(
        1.0 / 40_000)
    # a rare edge leaves the increment alone: rows (v) ignore probabilities
    assert flow_increment(chain_product(10, p_go=1e-6)) == pytest.approx(
        1e-4)


def rare_step_lmdp(rng, n_states):
    """``random_lmdp`` with a step of probability 1e-1 .. 1e-7 to a random
    state added to about half of its rows."""
    m = random_lmdp(rng, n_states, 2)
    trans = {}
    for key, row in m.trans.items():
        if rng.random() < 0.5:
            rare = 10.0 ** -int(rng.integers(1, 8))
            row = {s: prob * (1.0 - rare) for s, prob in row.items()}
            target = m.states[int(rng.integers(n_states))]
            row[target] = row.get(target, 0.0) + rare
        trans[key] = row
    return validate_lmdp(replace(m, trans=trans))


FLOW_ROWS = ("c_v_", "c_vi_", "c_vii_")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_states=st.integers(2, 4),
       n_nodes=st.integers(1, 3))
@example(seed=1019, n_states=2, n_nodes=1)     # one state, no edge
def test_flow_rows_flag_every_state_a_policy_reaches(seed, n_states,
                                                     n_nodes):
    """With the policy binaries pinned to a random deterministic policy and
    isq = 1 exactly on the states it reaches, rows (v)-(vii) are feasible,
    however small the probability of an edge.  The flows are solved for in
    units of the program's increment, so that HiGHS's tolerances stay far
    below every margin."""
    rng = np.random.default_rng(seed)
    p = build_product(rare_step_lmdp(rng, n_states),
                      random_dra(rng, n_nodes, ap=("p",)))
    model = build_program(p, mec_decomposition(p), no_ss_spec())
    cols = Columns(p)
    pi = Policy({sq: p.actions(i)[int(rng.integers(len(p.actions(i))))]
                 for i, sq in enumerate(p.states)})
    reached = set(induce_chain(p, pi).states)
    fixed = np.zeros(cols.isq0 + len(p.states))
    for i in range(len(p.states)):
        fixed[cols.pi0 + p.chosen_pair(i, pi)] = 1.0
        fixed[cols.isq0 + i] = float(i in reached)
    eps = next((-coef for row in model.rows if row.name.startswith("c_vi_")
                for coef, j in row.terms if j >= cols.isq0), 1.0)

    a_ub, b_ub = [], []
    for row in model.rows:
        if not row.name.startswith(FLOW_ROWS):
            continue
        a, rhs = np.zeros(cols.pi0 - cols.f0), row.rhs
        for coef, j in row.terms:
            if cols.f0 <= j < cols.pi0:
                a[j - cols.f0] += coef
            else:
                rhs -= coef * fixed[j]
        sign = -1.0 if row.sense == ">=" else 1.0
        a_ub.append(sign * a)
        b_ub.append(sign * rhs / eps)
    if cols.pi0 == cols.f0:         # no edge, no flow: the rows are constant
        assert min(b_ub) >= 0.0
        return
    res = linprog(np.zeros(cols.pi0 - cols.f0), A_ub=np.array(a_ub),
                  b_ub=np.array(b_ub), bounds=(0.0, 1.0 / eps),
                  method="highs")
    assert res.status == 0, res.message


def flow_rows_admit_flag(model, pi, u) -> bool:
    """Whether rows (v)-(vii) hold for some flows and flags, with the policy
    binaries pinned to ``pi``, isq of product state ``u`` pinned to 1 and
    every other isq free in [0, 1].  The flows are solved for in units of
    the program's increment, as above."""
    p = model.product
    cols = Columns(p)
    n_f = cols.pi0 - cols.f0
    free = [i for i in range(len(p.states)) if i != u]
    fixed = np.zeros(cols.isq0 + len(p.states))
    for i in range(len(p.states)):
        fixed[cols.pi0 + p.chosen_pair(i, pi)] = 1.0
    fixed[cols.isq0 + u] = 1.0
    position = {cols.f0 + e: e for e in range(n_f)}
    position.update({cols.isq0 + i: n_f + r for r, i in enumerate(free)})
    eps = next((-coef for row in model.rows if row.name.startswith("c_vi_")
                for coef, j in row.terms if j >= cols.isq0), 1.0)

    a_ub, b_ub = [], []
    for row in model.rows:
        if not row.name.startswith(FLOW_ROWS):
            continue
        a, rhs = np.zeros(n_f + len(free)), row.rhs
        for coef, j in row.terms:
            if j in position:
                a[position[j]] += coef
            else:
                rhs -= coef * fixed[j]
        a[n_f:] /= eps
        sign = -1.0 if row.sense == ">=" else 1.0
        a_ub.append(sign * a)
        b_ub.append(sign * rhs / eps)
    bounds = [(0.0, 1.0 / eps)] * n_f + [(0.0, 1.0)] * len(free)
    res = linprog(np.zeros(n_f + len(free)), A_ub=np.array(a_ub),
                  b_ub=np.array(b_ub), bounds=bounds, method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_states=st.integers(2, 4),
       n_nodes=st.integers(1, 3))
def test_flow_rows_flag_no_state_a_policy_misses(seed, n_states, n_nodes):
    """With the policy binaries pinned to a random deterministic policy,
    rows (v)-(vii) admit no flag on a state it does not reach, whatever the
    other flags are."""
    rng = np.random.default_rng(seed)
    p = build_product(rare_step_lmdp(rng, n_states),
                      random_dra(rng, n_nodes, ap=("p",)))
    model = build_program(p, mec_decomposition(p), no_ss_spec())
    pi = Policy({sq: p.actions(i)[int(rng.integers(len(p.actions(i))))]
                 for i, sq in enumerate(p.states)})
    reached = set(induce_chain(p, pi).states)
    for u in range(len(p.states)):
        if u not in reached:
            assert not flow_rows_admit_flag(model, pi, u)


def admitted(model, pi):
    """The reward optimum of ``model`` with its policy binaries pinned to
    ``pi``, or None if that program is infeasible."""
    program, _ = highs_arrays(fix_policy(model, pi))
    res = milp_shim.run_milp(*program, mip_rel_gap=0.0)
    assert res.status in (0, 2), res.message
    return None if res.status == 2 else -res.fun


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rows_viii_exclude_no_policy(seed):
    """Every deterministic policy of a random product of at most six states
    is admitted by the program, and reaches the same reward optimum there,
    exactly when it is and does with rows (viii) added."""
    rng = np.random.default_rng(seed)
    m = random_lmdp(rng, int(rng.integers(2, 5)), 2, ap=("p",),
                    det_prob=float(rng.choice([0.6, 0.9])))
    d = random_dra(rng, int(rng.integers(2, 4)), ap=("p",),
                   n_pairs=int(rng.integers(1, 3)))
    spec = no_ss_spec()
    if rng.random() < 0.5:
        spec = one_interval_spec("p", float(rng.choice([0.0, 0.1, 0.3])),
                                 float(rng.choice([0.5, 0.8, 1.0])))
    p = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(p), p)
    if len(p.states) > 6 or not amecs:
        return
    model = build_program(p, amecs, spec)
    reference = with_rows_viii(model)
    for choice in itertools.product(*map(p.actions, range(len(p.states)))):
        pi = Policy(dict(zip(p.states, choice)))
        ours, theirs = admitted(model, pi), admitted(reference, pi)
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours == pytest.approx(theirs, abs=1e-6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), ss=st.booleans())
def test_self_loop_flows_exclude_no_policy(seed, ss):
    """Every deterministic policy of a random product of at most six states
    is admitted by the program, which has no flow column for a self-loop,
    and reaches the same reward optimum there, exactly when it is and does
    with those columns and their rows (v) and (vii) terms put back
    (``helpers.with_self_loop_flows``)."""
    rng = np.random.default_rng(seed)
    m = random_lmdp(rng, int(rng.integers(2, 5)), 2, ap=("p",),
                    det_prob=float(rng.choice([0.6, 0.9])))
    d = random_dra(rng, int(rng.integers(2, 4)), ap=("p",),
                   n_pairs=int(rng.integers(1, 3)))
    spec = no_ss_spec()
    if ss:
        spec = one_interval_spec("p", float(rng.choice([0.0, 0.1, 0.3])),
                                 float(rng.choice([0.5, 0.8, 1.0])))
    p = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(p), p)
    if len(p.states) > 6 or not amecs:
        return
    model = build_program(p, amecs, spec)
    reference = with_self_loop_flows(model)
    for choice in itertools.product(*map(p.actions, range(len(p.states)))):
        pi = Policy(dict(zip(p.states, choice)))
        ours, theirs = admitted(model, pi), admitted(reference, pi)
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours == pytest.approx(theirs, abs=1e-6)


def relaxation_optimum(model):
    """The reward optimum of ``model``'s LP relaxation, or None if it is
    infeasible."""
    program, _ = highs_arrays(model)
    res = milp_shim.run_milp(*program._replace(
        integrality=np.zeros_like(program.integrality)))
    assert res.status in (0, 2), res.message
    return None if res.status == 2 else -res.fun


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), ss=st.booleans())
@example(seed=1026, ss=True)        # three accepting components
@example(seed=1518, ss=False)       # four
def test_rows_xiii_admit_what_the_iks_block_admits(seed, ss):
    """On a random product of at most six states, the program admits every
    deterministic policy that the auxiliary-block encoding of the
    shared-state condition (``helpers.with_iks_block``) admits, with the
    same reward optimum, when there is one accepting component; with more
    it admits a subset, with optima no higher.  The LP relaxations follow
    the same rule."""
    rng = np.random.default_rng(seed)
    m = random_lmdp(rng, int(rng.integers(2, 5)), 2, ap=("p",),
                    det_prob=float(rng.choice([0.6, 0.9])))
    d = random_dra(rng, int(rng.integers(2, 4)), ap=("p",),
                   n_pairs=int(rng.integers(1, 3)))
    spec = no_ss_spec()
    if ss:
        spec = one_interval_spec("p", float(rng.choice([0.0, 0.1, 0.3])),
                                 float(rng.choice([0.5, 0.8, 1.0])))
    p = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(p), p)
    if len(p.states) > 6 or not amecs:
        return
    model = build_program(p, amecs, spec)
    reference = with_iks_block(model)
    pairs = [(relaxation_optimum(model), relaxation_optimum(reference))]
    for choice in itertools.product(*map(p.actions, range(len(p.states)))):
        pi = Policy(dict(zip(p.states, choice)))
        pairs.append((admitted(model, pi), admitted(reference, pi)))
    for ours, theirs in pairs:
        if len(amecs) == 1:
            assert (ours is None) == (theirs is None)
            if ours is not None:
                assert ours == pytest.approx(theirs, abs=1e-6)
        elif ours is not None:
            assert theirs is not None and ours <= theirs + 1e-6


def test_rows_xiii_exclude_mass_on_components_without_a_shared_state():
    """s0 splits its mass evenly onto absorbing s1 and s2, two accepting
    components with no model state in common, and the ss row asks for mass
    on both.  Rows (xiii) exclude the only policy, as the auxiliary block
    does; without them it is admitted."""
    m = two_absorbing_model()
    m = validate_lmdp(replace(m, trans={
        **m.trans, ("s0", "go1"): {"s1": 0.5, "s2": 0.5},
        ("s0", "go2"): {"s1": 0.5, "s2": 0.5}}))
    model = build_for(m, TRUE_DRA, one_interval_spec("p", 0.4, 0.6))
    assert len(model.amecs) == 2
    pi = Policy({sq: "go1" for sq in model.product.states})
    assert admitted(model, pi) is None
    assert admitted(with_iks_block(model), pi) is None
    loose = replace(model, rows=tuple(r for r in model.rows
                                      if not r.name.startswith("c_xiii_")))
    assert admitted(loose, pi) is not None


def long_run_reward(m, report, pi) -> float:
    """The expected reward per step of ``pi`` under the verifier's limiting
    distribution."""
    total = 0.0
    for (s, q), mass in report.product_distribution.items():
        a = pi.choice[(s, q)]
        total += mass * sum(prob * m.reward_value(s, a, s2)
                            for s2, prob in m.trans[(s, a)].items())
    return total


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), ss=st.booleans())
def test_pinned_occupation_excludes_no_verified_policy(seed, ss):
    """Every deterministic policy the verifier accepts on a random product of
    at most six states is admitted by the program, whose x columns off the
    retained pairs are pinned to 0, and the program's reward optimum for it
    is at least its long-run reward."""
    rng = np.random.default_rng(seed)
    m = random_lmdp(rng, int(rng.integers(2, 5)), 2, ap=("p",),
                    det_prob=float(rng.choice([0.6, 0.9])))
    d = random_dra(rng, int(rng.integers(2, 4)), ap=("p",),
                   n_pairs=int(rng.integers(1, 3)))
    spec = no_ss_spec()
    if ss:
        spec = one_interval_spec("p", float(rng.choice([0.0, 0.1, 0.3])),
                                 float(rng.choice([0.5, 0.8, 1.0])))
    p = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(p), p)
    if len(p.states) > 6 or not amecs:
        return
    model = build_program(p, amecs, spec)
    for choice in itertools.product(*map(p.actions, range(len(p.states)))):
        pi = Policy(dict(zip(p.states, choice)))
        report = verify_policy(m, d, spec, pi, product=p)
        if report.verdict:
            optimum = admitted(model, pi)
            assert optimum is not None, pi.choice
            assert optimum >= long_run_reward(m, report, pi) - 1e-6


def own_inf_mass(p, report) -> float:
    """The limiting mass of the states of the policy's BSCCs that lie in S x
    Inf_j for a Rabin pair j accepting their BSCC."""
    mass = 0.0
    for b in report.bsccs:
        qs = {p.states[i][1] for i in b}
        infs = set().union(*(inf for fin, inf in p.dra.pairs
                             if not qs & fin and qs & inf))
        mass += sum(report.product_distribution[p.states[i]] for i in b
                    if p.states[i][1] in infs)
    return mass


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       det_prob=st.sampled_from([0.6, 0.75, 0.9]), ss=st.booleans())
# the union row admits 16 and 8 policies that row (xi) excludes
@example(seed=6, det_prob=0.75, ss=False)
@example(seed=14, det_prob=0.6, ss=True)
def test_row_xi_counts_only_what_a_rabin_pair_accepts(seed, det_prob, ss):
    """On the fuzz set's instances (one or two Rabin pairs) whose products
    have at most six states, for every deterministic policy: the limiting
    mass of a verified policy on the pairs row (xi) counts covers its BSCCs'
    mass on the Inf states of their accepting pairs, and the program admits
    it when that counted mass is at least acc_eps; and the program admits
    the policy only if the row over the union of the Inf sets
    (``helpers.with_union_acceptance_row``) does, with an optimum no
    higher."""
    m, d, spec = oracle_instance(seed, det_prob, ss)
    p = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(p), p)
    if len(p.states) > 6 or not amecs:
        return
    model = build_program(p, amecs, spec)
    (row,) = [r for r in model.rows if r.name == "c_xi_0"]
    counted = {k for _, k in row.terms}
    reference = with_union_acceptance_row(model)
    for choice in itertools.product(*map(p.actions, range(len(p.states)))):
        pi = Policy(dict(zip(p.states, choice)))
        ours = admitted(model, pi)
        if ours is not None:
            theirs = admitted(reference, pi)
            assert theirs is not None and ours <= theirs + 1e-6
        report = verify_policy(m, d, spec, pi, product=p)
        if report.verdict:
            mass = sum(report.product_distribution[sq]
                       for i, sq in enumerate(p.states)
                       if sq in report.product_distribution
                       and p.chosen_pair(i, pi) in counted)
            assert mass >= own_inf_mass(p, report) - 1e-9
            if mass >= row.rhs:
                assert ours is not None, pi.choice


def retained_pairs(p, amecs) -> set:
    """The pairs k of a state of an accepting component whose successors all
    lie in that component."""
    return {k for amec in amecs for i in amec for k in p.pairs(i)
            if all(j in amec for j in p.succ[k])}


def test_x_is_pinned_to_0_off_the_retained_pairs():
    """10x10 theta4 grid, seed 0: the one accepting component is the 100
    copies of the accepting sink node, which retain 400 of the 992 pairs.
    Exactly the other 592 x columns get ub = 0; every other column keeps
    its bounds [0, 1], and LP text carries the pins to ``milp_shim``."""
    spec = load_spec("fixtures/specs/theta4.json")
    m = generate_grid(GridSpec(10, 10, seed=0))
    p = build_product(m, load_hoa(spec.dra_source))
    amecs = accepting_mecs(mec_decomposition(p), p)
    assert [len(c) for c in amecs] == [100]
    model = build_program(p, amecs, spec, IlpConfig(objective="feasibility"))
    n_pairs = Columns(p).f0
    pinned = set(range(n_pairs)) - retained_pairs(p, amecs)
    assert (n_pairs, len(pinned)) == (992, 592)
    for j, v in enumerate(model.variables):
        assert (v.lb, v.ub) == ((0.0, 0.0) if j in pinned else (0.0, 1.0))
    prob = milp_shim.parse_lp(export_lp(model))
    read = dict(zip(prob.names, zip(prob.program.lb, prob.program.ub)))
    for k, name in enumerate(column_names(model)[:n_pairs]):
        assert read[name] == ((0.0, 0.0) if k in pinned else (0.0, 1.0))


@pytest.mark.parametrize("knobs", [
    {"acc_eps": 0.0}, {"acc_eps": float("nan")}, {"acc_eps": 2.0},
    {"objective": "max_reward"}],
    ids=repr)
def test_config_rejects_knobs_outside_their_range(knobs):
    with pytest.raises(ModelError):
        IlpConfig(**knobs)


# ---------------------------------------------------------------------------
# LP export
# ---------------------------------------------------------------------------

def golden_two_state_model():
    m = validate_lmdp(Lmdp(
        states=("s0", "s1"), actions=("up", "down"),
        enabled={"s0": ("up", "down"), "s1": ("up", "down")},
        trans={("s0", "up"): {"s0": 0.5, "s1": 0.5},
               ("s0", "down"): {"s1": 1.0},
               ("s1", "up"): {"s1": 1.0}, ("s1", "down"): {"s0": 1.0}},
        reward={("s0", "up", "s1"): 1.0},
        ap=("p",), labels={"s0": frozenset(["p"]), "s1": frozenset()},
        initial="s0"))
    spec = spec_from_json({"dra": "true.hoa",
                           "ss": [{"formula": "p", "lower": 0.1,
                                   "upper": 0.9}]})
    return build_for(m, TRUE_DRA, spec, IlpConfig())


def grid_with_cuts_model(width=3, height=3, seed=0, dynamics="slip",
                         theta="theta2", objective="feasibility"):
    """A grid's program plus the cut rows of the first-enabled-action
    policy."""
    spec = load_spec(f"fixtures/specs/{theta}.json")
    d = load_hoa(spec.dra_source)
    m = generate_grid(GridSpec(width, height, seed=seed, dynamics=dynamics))
    p = build_product(m, d)
    model = build_program(p, accepting_mecs(mec_decomposition(p), p), spec,
                          IlpConfig(objective=objective))
    pi = Policy({sq: m.enabled[sq[0]][0] for sq in p.states})
    cuts = _rejection_cuts(model, pi,
                           verify_policy(m, d, spec, pi, product=p), 0)
    return replace(model, rows=model.rows + tuple(cuts)), cuts


def test_golden_two_state_lp(tmp_path):
    with open("tests/golden/two_state.lp", "r", encoding="utf-8") as fh:
        assert export_lp(golden_two_state_model()) == fh.read()


def test_golden_grid_with_cut_rows_lp():
    """3x3 theta2 slip grid, seed 0, feasibility, plus the cut rows of the
    first-enabled-action policy (one no-good, one loop): several automaton
    nodes, multi-successor rows and cut rows pin the row and column order."""
    model, cuts = grid_with_cuts_model()
    assert [c.name for c in cuts] == ["c_cut_0_nogood", "c_cut_0_loop0"]
    with open("tests/golden/grid3_theta2_slip_cuts.lp", "r",
              encoding="utf-8") as fh:
        assert export_lp(model) == fh.read()


def test_export_is_deterministic():
    m = generate_grid(GridSpec(3, 3, seed=8))
    a = export_lp(build_for(m, cycle3_dra(), one_interval_spec()))
    b = export_lp(build_for(m, cycle3_dra(), one_interval_spec()))
    assert a == b


def test_feasibility_objective_header():
    m = two_absorbing_model()
    model = build_for(m, TRUE_DRA, no_ss_spec(),
                      IlpConfig(objective="feasibility"))
    text = export_lp(model)
    assert text.startswith("Maximize\n obj: 0\nSubject To\n")


def test_binary_section_lists_each_binary_once():
    m = two_absorbing_model()
    model = build_for(m, TRUE_DRA, no_ss_spec())
    text = export_lp(model)
    binary_block = text.split("Binary\n")[1].split("End")[0].split()
    assert sorted(binary_block) == sorted(binaries(model))
    assert len(set(binary_block)) == len(binary_block)
    for name, v in zip(column_names(model), model.variables):
        assert v.binary == (name in binary_block)


# ---------------------------------------------------------------------------
# Solution parsing
# ---------------------------------------------------------------------------

def test_parse_name_value_layout():
    text = """Model status: Optimal
Objective 0.5
# Columns 3
x_0_0_0 0.5
pi_0_0_0 1.0
isq_0_0 1
"""
    values, hint = parse_solution_text(
        text, {"x_0_0_0", "pi_0_0_0", "isq_0_0"})
    assert hint == "optimal"
    assert values == {"x_0_0_0": 0.5, "pi_0_0_0": 1.0, "isq_0_0": 1.0}


def test_parse_cbc_index_layout():
    text = """Optimal - objective value 0.50000000
      0 x_0_0_0                 0.5                      0.5
      1 pi_0_0_0                1                        0
      2 isq_0_0                 1                        0
"""
    values, hint = parse_solution_text(
        text, {"x_0_0_0", "pi_0_0_0", "isq_0_0"})
    assert hint == "optimal"
    assert values["x_0_0_0"] == 0.5 and values["pi_0_0_0"] == 1.0


def test_parse_infeasible_text():
    values, hint = parse_solution_text("Infeasible - objective value 0\n",
                                       {"x"})
    assert hint == "infeasible" and values == {}


# ---------------------------------------------------------------------------
# Solving end to end
# ---------------------------------------------------------------------------

def one_state_model():
    return validate_lmdp(Lmdp(
        states=("s0",), actions=("go",), enabled={"s0": ("go",)},
        trans={("s0", "go"): {"s0": 1.0}},
        reward={("s0", "go", "s0"): 2.0},
        ap=("g",), labels={"s0": frozenset(["g"])}, initial="s0"))


def test_solve_one_state_instance():
    """Through LP and solution files: the configured external command, else
    the bundled backend run as ``python -m ssltl.milp_shim``."""
    m = one_state_model()
    spec = spec_from_json({"dra": "x",
                           "ss": [{"formula": "g", "lower": 1.0,
                                   "upper": 1.0}]})
    model = build_for(m, TRUE_DRA, spec)
    sol = solve(model, SolverConfig(command=default_solver_command(),
                                    timeout=120))
    cols = Columns(model.product)
    assert sol.status == "optimal"
    assert sol.values[0] == pytest.approx(1.0, abs=1e-6)            # x_0_0_0
    assert sol.values[cols.pi0] == pytest.approx(1.0, abs=1e-6)     # pi_0_0_0
    assert sol.objective == pytest.approx(2.0, abs=1e-6)
    assert check_solution(model, sol) <= 1e-6
    pi = extract_policy(sol, model.product)
    assert pi.choice == {("s0", "q0"): "go"}


def test_bundled_solve_reports_bound_gap_and_nodes():
    m = one_state_model()
    spec = spec_from_json({"dra": "x",
                           "ss": [{"formula": "g", "lower": 1.0,
                                   "upper": 1.0}]})
    sol = solve(build_for(m, TRUE_DRA, spec), SolverConfig(timeout=120))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-6)
    assert sol.bound == pytest.approx(2.0, abs=1e-6)
    assert sol.gap == pytest.approx(0.0, abs=1e-9)
    assert isinstance(sol.nodes, int)


def test_solution_file_gives_no_bound():
    sol = solve(build_for(one_state_model(), TRUE_DRA, no_ss_spec()),
                SolverConfig(command=default_solver_command(), timeout=120))
    assert sol.status == "optimal"
    assert (sol.bound, sol.gap, sol.nodes, sol.split) == (None,) * 4


# The golden LP files, each with the model that writes it, and three more
# programs of the cut loop
ARRAY_ROUTE_INPUTS = [
    ("two_state.lp", golden_two_state_model),
    ("grid3_theta2_slip_cuts.lp", lambda: grid_with_cuts_model()[0]),
    ("3x3-theta4-det-reward", lambda: grid_with_cuts_model(
        3, 3, 1, "deterministic", "theta4", "expected_reward")[0]),
    ("4x4-theta2-det-g0", lambda: grid_with_cuts_model(
        4, 4, 0, "deterministic")[0]),
    ("4x3-theta4-slip-reward", lambda: grid_with_cuts_model(
        4, 3, 2, "slip", "theta4", "expected_reward")[0]),
]


@pytest.mark.parametrize("name, build", ARRAY_ROUTE_INPUTS)
def test_array_route_hands_highs_the_lp_file_program(monkeypatch,
                                                     bundled_backend, name,
                                                     build):
    """The bundled worker's arrays and the arrays ``milp_shim`` reads from
    the LP text hand HiGHS the same program, and both routes reach the same
    answer."""
    model = build()
    if name.endswith(".lp"):
        with open(f"tests/golden/{name}", "r", encoding="utf-8") as fh:
            assert export_lp(model) == fh.read()
    calls = []
    original = milp_shim.run_milp

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(milp_shim, "run_milp", recording)
    res, _ = milp_shim.solve_lp_problem(milp_shim.parse_lp(export_lp(model)),
                                        time_limit=60.0)
    program, _ = highs_arrays(model)
    (file_args,) = calls
    assert_same_highs_program(program, file_args)

    sol = solve(model, SolverConfig(timeout=60.0))
    assert f"Model status: {milp_shim.model_status(res, 60.0)}" \
        == sol.solver_output
    if res.x is not None:
        assert sol.objective == pytest.approx(-res.fun, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name, build", ARRAY_ROUTE_INPUTS)
def test_run_milp_searches_as_scipy_milp_does(name, build, seed):
    """``run_milp`` hands HiGHS the program and options scipy's ``milp``
    would: on the same arrays and seed, both end in the same status after
    the same number of nodes, at the same objective."""
    if name.endswith(".lp"):
        with open(f"tests/golden/{name}", "r", encoding="utf-8") as fh:
            program = milp_shim.parse_lp(fh.read()).program
    else:
        program, _ = highs_arrays(build())
    c, a_rows, a_cols, a_vals, row_lb, row_ub, lb, ub, integrality = program
    a = sparse.csc_array((a_vals, (a_rows, a_cols)),
                         shape=(len(row_lb), len(c)))
    with warnings.catch_warnings():
        # milp hands HiGHS the seed verbatim, and warns that it does
        warnings.filterwarnings("ignore", "Unrecognized options",
                                RuntimeWarning)
        theirs = milp(c, constraints=LinearConstraint(a, row_lb, row_ub),
                      integrality=integrality, bounds=Bounds(lb, ub),
                      options={"time_limit": 60.0, "random_seed": seed})
    ours = milp_shim.run_milp(*program, random_seed=seed, time_limit=60.0)
    assert theirs.status == 0 and theirs.mip_node_count is not None
    assert (ours.status, ours.mip_node_count) == (
        theirs.status, theirs.mip_node_count)
    assert ours.fun == pytest.approx(theirs.fun, abs=1e-9)


def test_infeasibility_proof_reports_its_nodes(monkeypatch, bundled_backend):
    """The bundled backend reports HiGHS's node count with every status:
    one search proves the bnb-hard program of the 3x4 grid, seed 1, with
    d in [0.9, 1] infeasible by branch and bound, and says after how many
    nodes."""
    monkeypatch.setattr(ilp, "_race_seeds", lambda: (0,))
    spec = load_spec("fixtures/specs/theta2.json")
    spec = replace(spec, ss=one_interval_spec("d", 0.9, 1.0).ss)
    model = build_for(generate_grid(GridSpec(3, 4, seed=1)),
                      load_hoa(spec.dra_source), spec,
                      IlpConfig(objective="feasibility"))
    sol = solve(model, SolverConfig(timeout=60.0))
    assert (sol.status, sol.seed, sol.searches) == ("infeasible", 0, 1)
    assert isinstance(sol.nodes, int) and sol.nodes > 0


@pytest.mark.parametrize("name, build", ARRAY_ROUTE_INPUTS)
def test_an_interrupt_check_leaves_the_search_as_it_is(name, build):
    """An interrupt callback that never interrupts, as every search of the
    bundled worker installs, changes nothing: the same status after the
    same nodes, at the same objective."""
    program, _ = highs_arrays(build())
    plain = milp_shim.run_milp(*program, interrupt=None, time_limit=60.0)
    checked = milp_shim.run_milp(*program, interrupt=lambda: False,
                                 time_limit=60.0)
    assert (checked.status, checked.mip_node_count) == (
        plain.status, plain.mip_node_count)
    assert checked.fun == plain.fun


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), ss=st.booleans())
def test_a_split_answers_as_one_search_on_the_whole_program(seed, ss):
    """On a random product with the reward objective, two searches that
    split the program on the initial state's pairs
    (``milp_shim.solve_request``) reach what one search on the whole
    program does: the same status and optimum, with a bound no lower than
    the optimum."""
    rng = np.random.default_rng(seed)
    m = random_lmdp(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)),
                    ap=("p",), det_prob=float(rng.choice([0.6, 0.9])))
    d = random_dra(rng, int(rng.integers(2, 4)), ap=("p",),
                   n_pairs=int(rng.integers(1, 3)))
    spec = no_ss_spec()
    if ss:
        spec = one_interval_spec("p", float(rng.choice([0.0, 0.1, 0.3])),
                                 float(rng.choice([0.5, 0.8, 1.0])))
    p = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(p), p)
    if not amecs:
        return
    model = build_program(p, amecs, spec)
    race_seeds, answers = ilp._race_seeds, []
    try:
        for seeds in ((0,), (0, 1)):
            ilp._race_seeds = lambda: seeds
            answers.append(solve(model, SolverConfig(timeout=60.0)))
    finally:
        ilp._race_seeds = race_seeds
    whole, split = answers
    groups = ilp._initial_groups(model, highs_arrays(model)[1])
    assert (whole.split, split.split) == (False, len(groups) > 1)
    assert split.status == whole.status
    if whole.status == "optimal":
        assert split.objective == pytest.approx(whole.objective, abs=1e-9)
        assert split.bound >= split.objective - 1e-9


def test_solve_conflicting_ss_infeasible(solver_cmd):
    m = two_absorbing_model()
    spec = spec_from_json({"dra": "x",
                           "ss": [{"formula": "p", "lower": 0.6, "upper": 1.0},
                                  {"formula": "r", "lower": 0.6,
                                   "upper": 1.0}]})
    model = build_for(m, TRUE_DRA, spec)
    sol = solve(model, SolverConfig(command=solver_cmd, timeout=120))
    assert sol.status == "infeasible"


def test_unflagged_states_carry_no_measure(solver_cmd):
    m = six_state_until_lmdp()
    d = load_hoa("fixtures/automata/fa_U_b.hoa")
    spec = spec_from_json({"dra": "x",
                           "ss": [{"formula": "b", "lower": 0.4,
                                   "upper": 1.0}]})
    model = build_for(m, d, spec)
    sol = solve(model, SolverConfig(command=solver_cmd, timeout=300))
    assert sol.status in ("optimal", "feasible")
    assert check_solution(model, sol) <= 1e-6
    p = model.product
    cols = Columns(p)
    for i in range(len(p.states)):
        if sol.values[cols.isq0 + i] < 0.5:
            assert sum(sol.values[k] for k in p.pairs(i)) <= 1e-6


def test_fixed_verified_policy_stays_feasible(solver_cmd):
    """The reverse direction on a desk-size instance: pin the policy binaries
    to an exhaustively-found verified policy and ask for a certificate."""
    from helpers import brute_force_synth

    m = six_state_until_lmdp()
    d = load_hoa("fixtures/automata/fa_U_b.hoa")
    spec = spec_from_json({"dra": "x",
                           "ss": [{"formula": "b", "lower": 0.4,
                                   "upper": 1.0}]})
    pi = brute_force_synth(m, d, spec, max_states=30)
    assert pi is not None
    model = build_for(m, d, spec)
    pinned = fix_policy(model, pi)
    sol = solve(pinned, SolverConfig(command=solver_cmd, timeout=300))
    assert sol.status in ("optimal", "feasible")


@pytest.mark.parametrize("where", ["keep-files", "tmpdir"])
def test_external_solver_paths_may_hold_spaces(tmp_path, monkeypatch, where):
    """{lp} and {sol} are filled in after the template is split, so a path
    with a space stays one argument."""
    spaced = tmp_path / "a dir"
    keep = str(spaced) if where == "keep-files" else None
    if keep is None:
        spaced.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spaced))
    sol = solve(build_for(one_state_model(), TRUE_DRA, no_ss_spec()),
                SolverConfig(command=default_solver_command(), timeout=120),
                keep_files=keep)
    assert sol.status == "optimal", sol.solver_output
    assert sol.objective == pytest.approx(2.0, abs=1e-6)


def test_solve_reads_no_environment(monkeypatch):
    """Only the CLI reads SSLTL_SOLVER_CMD; a library solve without a command
    takes the bundled worker."""
    monkeypatch.setenv("SSLTL_SOLVER_CMD", "no-such-solver {lp} {sol}")
    sol = solve(build_for(one_state_model(), TRUE_DRA, no_ss_spec()))
    assert sol.status == "optimal" and sol.nodes is not None
    assert "ssltl.milp_shim" in default_solver_command()


def test_solver_launch_failure():
    m = one_state_model()
    model = build_for(m, TRUE_DRA, no_ss_spec())
    sol = solve(model,
                SolverConfig(command="definitely-not-a-solver {lp} {sol}"))
    assert sol.status == "error" and "launch" in sol.solver_output


def test_default_solver_command_has_placeholders():
    cmd = default_solver_command()
    assert "{lp}" in cmd and "{sol}" in cmd


# ---------------------------------------------------------------------------
# Time limits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width, height, seed, lower, upper", [
    (3, 4, 1, 0.01, 0.5), (3, 4, 1, 0.9, 1.0), (4, 3, 0, 0.9, 1.0)])
def test_time_limit_without_a_point_is_a_timeout(width, height, seed, lower,
                                                  upper):
    """A 0 s limit stops HiGHS before it has any point."""
    d = load_hoa("fixtures/automata/theta2.hoa")
    spec = spec_from_json({"dra": "theta2.hoa", "ss": [
        {"formula": "d", "lower": lower, "upper": upper}]})
    result = synthesize(generate_grid(GridSpec(width, height, seed=seed)), d,
                        spec, solver=SolverConfig(timeout=0))
    assert result.status == "timeout" and result.rounds == 1
    assert result.policy is None and "(0 s)" in result.detail


def test_killed_command_is_a_timeout():
    model = build_for(one_state_model(), TRUE_DRA, no_ss_spec())
    sleeper = (f"{sys.executable} -c 'import time; time.sleep(30)' "
               "{lp} {sol}")
    sol = solve(model, SolverConfig(command=sleeper, timeout=0.5))
    assert sol.status == "timeout"
    assert "killed after 0.5 s" in sol.solver_output


# ---------------------------------------------------------------------------
# Policy extraction corner cases
# ---------------------------------------------------------------------------

def two_action_product():
    m = validate_lmdp(Lmdp(
        states=("s0",), actions=("a0", "a1"), enabled={"s0": ("a0", "a1")},
        trans={("s0", "a0"): {"s0": 1.0}, ("s0", "a1"): {"s0": 1.0}},
        reward={}, ap=(), labels={"s0": frozenset()}, initial="s0"))
    return build_product(m, TRUE_DRA)


def solution_at_s0(p, x, pi, status="optimal"):
    """A solution whose x and pi columns of the one product state hold the
    given per-action values; every other column is 0."""
    cols = Columns(p)
    values = np.zeros(cols.end)
    values[list(p.pairs(0))] = x
    values[[cols.pi0 + k for k in p.pairs(0)]] = pi
    return Solution(status=status, values=values, objective=0.0)


def test_extract_concentrated_measure():
    p = two_action_product()
    sol = solution_at_s0(p, x=(0.3, 0.0), pi=(1.0, 0.0))
    pi = extract_policy(sol, p)
    assert pi.choice[("s0", "q0")] == "a0"


def test_extract_transient_state_reads_pi_alone():
    p = two_action_product()
    sol = solution_at_s0(p, x=(0.0, 0.0), pi=(0.0, 1.0))
    assert extract_policy(sol, p).choice[("s0", "q0")] == "a1"


def test_extract_loose_integrality_warns_and_picks_larger():
    p = two_action_product()
    sol = solution_at_s0(p, x=(0.0, 0.0), pi=(0.4, 0.6), status="feasible")
    with pytest.warns(UserWarning, match="integrality slack"):
        pi = extract_policy(sol, p)
    assert pi.choice[("s0", "q0")] == "a1"


def test_extract_rejects_identity_violation():
    p = two_action_product()
    sol = solution_at_s0(p, x=(0.3, 0.0), pi=(0.0, 1.0))
    with pytest.raises(PolicyError, match="identity"):
        extract_policy(sol, p)


def test_extract_rejects_missing_winner():
    p = two_action_product()
    sol = solution_at_s0(p, x=(0.0, 0.0), pi=(0.5, 0.5))
    with pytest.raises(PolicyError, match="unique"):
        extract_policy(sol, p)
