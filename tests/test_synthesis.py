import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_force_synth, named_chain, power_iteration_limit, \
    random_dra, random_lmdp
from ssltl import ilp
from ssltl.graph import accepting_mecs, mec_decomposition
from ssltl.hoa import load_hoa, parse_hoa
from ssltl.ilp import Columns, IlpConfig, SolverConfig, build_program
from ssltl.model import GridSpec, Lmdp, generate_grid, load_spec, \
    model_from_json, spec_from_json, validate_lmdp
from ssltl.product import Policy, build_product, induce_chain
from ssltl.synthesis import DEFAULT_MAX_CUT_ROUNDS, _rejection_cuts, \
    synthesize
from ssltl.verify import verify_policy

TRUE_DRA = parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 0
acc-name: Rabin 1
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[t] 0
--END--
""")


def each_search(monkeypatch):
    """Search 0 alone, then search 1 alone: a test that pins the number of
    rounds runs its solves under each, so that the count does not depend on
    which of the raced searches answers."""
    for seeds in ((0,), (1,)):
        monkeypatch.setattr(ilp, "_RACER_SEEDS", seeds)
        yield seeds


def mixture_trap_model():
    """A coin flip into a two-state component where every deterministic
    policy yields p-mass in {0, 0.5, 1}: the ss interval [0.2, 0.3] is only
    reachable by measure mixtures over two separate closed loops, which no
    unichain realizes."""
    states = ("s0", "s1", "s2")
    actions = ("stay", "swap")
    trans = {
        ("s0", "stay"): {"s1": 0.5, "s2": 0.5},
        ("s0", "swap"): {"s1": 0.5, "s2": 0.5},
        ("s1", "stay"): {"s1": 1.0}, ("s1", "swap"): {"s2": 1.0},
        ("s2", "stay"): {"s2": 1.0}, ("s2", "swap"): {"s1": 1.0},
    }
    return validate_lmdp(Lmdp(
        states=states, actions=actions,
        enabled={s: actions for s in states}, trans=trans, reward={},
        ap=("p",), labels={"s0": frozenset(), "s1": frozenset(["p"]),
                           "s2": frozenset()},
        initial="s0"))


def test_cut_loop_converges_to_infeasible(solver_cmd, monkeypatch):
    """The raw program accepts a stationary mixture over the two absorbing
    loops (its indicator system reasons per component, and both loops live in
    one component), so the first candidate policy fails verification; the
    no-good cuts must drive the loop to a sound infeasibility verdict that
    matches the exhaustive oracle."""
    m = mixture_trap_model()
    spec = spec_from_json({"dra": "x", "ss": [
        {"formula": "p", "lower": 0.2, "upper": 0.3}]})
    assert brute_force_synth(m, TRUE_DRA, spec) is None
    for seeds in each_search(monkeypatch):
        result = synthesize(
            m, TRUE_DRA, spec,
            solver=SolverConfig(command=solver_cmd, timeout=120),
            max_cut_rounds=32)
        assert result.status == "infeasible", seeds
        assert result.rounds > 1, seeds


def test_feasible_variant_of_trap(solver_cmd):
    m = mixture_trap_model()
    spec = spec_from_json({"dra": "x", "ss": [
        {"formula": "p", "lower": 0.4, "upper": 0.6}]})
    result = synthesize(m, TRUE_DRA, spec,
                        solver=SolverConfig(command=solver_cmd, timeout=120))
    assert result.status == "verified"
    masses = {r.formula: r.mass for r in result.report.ss_results}
    assert masses["p"] == pytest.approx(0.5, abs=1e-9)


def test_structural_infeasibility_short_circuits():
    """No accepting component at all: declared infeasible without a solve."""
    dead = parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {0 1}
[t] 0
--END--
""")
    m = mixture_trap_model()
    spec = spec_from_json({"dra": "x", "ss": []})
    result = synthesize(m, dead, spec)
    assert result.status == "infeasible"
    assert result.rounds == 0 and result.solve_seconds == 0.0


def test_reward_objective_prefers_rewarding_loop(solver_cmd):
    m = mixture_trap_model()
    reward = {("s1", "stay", "s1"): 1.0}
    m = validate_lmdp(Lmdp(
        states=m.states, actions=m.actions, enabled=m.enabled, trans=m.trans,
        reward=reward, ap=m.ap, labels=m.labels, initial=m.initial))
    spec = spec_from_json({"dra": "x", "ss": []})
    result = synthesize(m, TRUE_DRA, spec,
                        solver=SolverConfig(command=solver_cmd, timeout=120))
    assert result.status == "verified"
    # all mass parked on the rewarding self-loop is impossible (the coin flip
    # splits mass), so the best unichain folds s2 back into s1
    assert result.objective == pytest.approx(1.0, abs=1e-6)
    assert result.policy.choice[("s1", "q0")] == "stay"
    assert result.policy.choice[("s2", "q0")] == "swap"


GF_B_DRA = parse_hoa("""HOA: v1
States: 2
Start: 0
AP: 1 "b"
acc-name: Rabin 1
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0
[!0] 0
[0] 1
State: 1 {1}
[!0] 0
[0] 1
--END--
""")


def coin_flip_cuts(trans):
    """The program of a coin flip from s0 into a b state s1 and a non-b
    state s2 under GF b, with ``trans`` the rows of s1 and s2, and the cuts
    of the policy that always takes the first action; both BSCCs of its
    chain are absorbing, s1's accepts and s2's does not."""
    states = ("s0", "s1", "s2")
    actions = tuple(dict.fromkeys(a for _, a in trans))
    trans.update({("s0", a): {"s1": 0.5, "s2": 0.5} for a in actions})
    m = validate_lmdp(Lmdp(
        states=states, actions=actions, enabled={s: actions for s in states},
        trans=trans, reward={}, ap=("b",), labels={"s0": frozenset(),
                                                   "s1": frozenset(["b"]),
                                                   "s2": frozenset()},
        initial="s0"))
    spec = spec_from_json({"dra": "x", "ss": []})
    p = build_product(m, GF_B_DRA)
    model = build_program(p, accepting_mecs(mec_decomposition(p), p), spec)
    pi = Policy({sq: actions[0] for sq in p.states})
    report = verify_policy(m, GF_B_DRA, spec, pi, product=p)
    assert report.rabin_ok == (True, False)
    return model, _rejection_cuts(model, pi, report, 0)


def test_rejection_cuts_skip_an_accepting_bscc():
    """s1 and s2 each loop on 'stay' and move to the other on 'swap': the
    cuts are the no-good cut and one loop cut, for BSCC 1 only, over both x
    columns of s2, which the accepting component {s1, s2} retains."""
    model, cuts = coin_flip_cuts({
        ("s1", "stay"): {"s1": 1.0}, ("s1", "swap"): {"s2": 1.0},
        ("s2", "stay"): {"s2": 1.0}, ("s2", "swap"): {"s1": 1.0}})
    p = model.product
    assert [c.name for c in cuts] == ["c_cut_0_nogood", "c_cut_0_loop1"]
    k = p.first[p.states.index(("s2", "q0"))]
    assert cuts[1].terms == ((1.0, k), (1.0, k + 1),
                             (1.0, Columns(p).pi0 + k))
    assert cuts[1].rhs == 1.0


def test_rejection_cuts_leave_out_a_loop_cut_on_pinned_pairs():
    """s1 and s2 only loop: no accepting component holds s2, so its x column
    is pinned to 0 and the loop cut of BSCC 1 would read pi <= 1, which
    always holds.  Only the no-good cut is left."""
    model, cuts = coin_flip_cuts({("s1", "go"): {"s1": 1.0},
                                  ("s2", "go"): {"s2": 1.0}})
    p = model.product
    assert model.variables[p.first[p.states.index(("s2", "q0"))]].ub == 0.0
    assert [c.name for c in cuts] == ["c_cut_0_nogood"]


@pytest.mark.parametrize("command, cause", [
    ("no-such-solver {lp} {sol}", "cannot launch solver: 'no-such-solver "),
    ("false {lp} {sol}", "solver failed (exit 1) and wrote no solution"),
    ("true {lp} {sol}", "unparseable solver output: ''"),
    ("x {lp} {sol} {x}",
     "malformed solver command template 'x {lp} {sol} {x}': KeyError"),
    ("x {lp} {sol", "malformed solver command template 'x {lp} {sol': "
                    "ValueError"),
    ("x {lp} {sol} 'q", "malformed solver command template "
                        "\"x {lp} {sol} 'q\": ValueError"),
    ("  ", "malformed solver command template '  ': ValueError: no command"),
], ids=["cannot-launch", "exit-1-no-solution", "no-output",
        "unknown-placeholder", "unclosed-brace", "unbalanced-quote",
        "blank"])
def test_solver_failure_ends_in_status_error(command, cause, tmp_path,
                                             monkeypatch):
    """A failed solve is a result with the cause in ``detail``, not an
    exception out of ``synthesize``, and its temporary directory is gone."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spec = spec_from_json({"dra": "x", "ss": []})
    result = synthesize(mixture_trap_model(), TRUE_DRA, spec,
                        solver=SolverConfig(command=command))
    assert result.status == "error" and result.rounds == 1
    assert result.detail.startswith(f"solver error: {cause}")
    assert result.solution.status == "error"
    assert result.policy is None and result.report is None
    assert list(tmp_path.glob("ssltl_*")) == []


FG_NOT_F_DRA = parse_hoa("""HOA: v1
States: 2
Start: 0
AP: 1 "f"
acc-name: Rabin 1
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[!0] 0
[0] 1
State: 1 {0}
[!0] 0
[0] 1
--END--
""")


def fin_touching_mec_model():
    """s0 -stay-> s0, s0 -go-> s1 (labelled f), s1 -go-> s0: the whole
    product is one MEC, and it touches Fin through (s1, q1), but the
    self-loop at (s0, q0) alone is an accepting end component."""
    return validate_lmdp(Lmdp(
        states=("s0", "s1"), actions=("stay", "go"),
        enabled={"s0": ("stay", "go"), "s1": ("go",)},
        trans={("s0", "stay"): {"s0": 1.0}, ("s0", "go"): {"s1": 1.0},
               ("s1", "go"): {"s0": 1.0}},
        reward={}, ap=("f",),
        labels={"s0": frozenset(), "s1": frozenset(["f"])}, initial="s0"))


def test_oracle_finds_the_policy_inside_a_fin_touching_mec():
    spec = spec_from_json({"dra": "x", "ss": []})
    pi = brute_force_synth(fin_touching_mec_model(), FG_NOT_F_DRA, spec)
    assert pi is not None and pi.choice[("s0", "q0")] == "stay"


def test_accepting_end_component_inside_a_fin_touching_mec(solver_cmd):
    spec = spec_from_json({"dra": "x", "ss": []})
    result = synthesize(fin_touching_mec_model(), FG_NOT_F_DRA, spec,
                        solver=SolverConfig(command=solver_cmd, timeout=120))
    assert result.status == "verified"


# Per-pair accepting end components {0}, {0, ..., 4} and {3} that overlap: a
# list of them without the region step makes the indicator rows exclude every
# policy.  Found by the oracle fuzz below (seed 12, ss rows on, det_prob
# 0.6, instance 51 of the stream).
OVERLAP_MODEL = model_from_json({
    "states": [{"id": "s0", "labels": ["p"]}, {"id": "s1", "labels": []},
               {"id": "s2", "labels": ["p"]}, {"id": "s3", "labels": ["p"]}],
    "actions": ["a0", "a1"], "ap": ["p"], "initial": "s0",
    "transitions": [
        {"from": s, "action": a, "to": t, "p": p} for s, a, t, p in [
            ("s0", "a0", "s0", 1.0), ("s0", "a1", "s3", 1.0),
            ("s1", "a0", "s0", 0.25912273650239176),
            ("s1", "a0", "s1", 0.46676457767496315),
            ("s1", "a0", "s2", 0.11131071601635605),
            ("s1", "a0", "s3", 0.16280196980628903),
            ("s1", "a1", "s0", 0.04253878938397271),
            ("s1", "a1", "s1", 0.11040768631591456),
            ("s1", "a1", "s2", 0.4536271280101854),
            ("s1", "a1", "s3", 0.3934263962899273),
            ("s2", "a0", "s1", 1.0), ("s2", "a1", "s2", 1.0),
            ("s3", "a0", "s1", 1.0),
            ("s3", "a1", "s0", 0.16025204270542515),
            ("s3", "a1", "s1", 0.26471126559422975),
            ("s3", "a1", "s2", 0.2776659146549435),
            ("s3", "a1", "s3", 0.29737077704540177)]],
    "rewards": [
        {"from": s, "action": a, "to": t, "r": 1.0} for s, a, t in [
            ("s0", "a1", "s3"), ("s1", "a0", "s0"), ("s1", "a0", "s1"),
            ("s1", "a0", "s2"), ("s1", "a0", "s3"), ("s2", "a0", "s1"),
            ("s2", "a1", "s2")]],
})
OVERLAP_DRA = parse_hoa("""HOA: v1
States: 2
Start: 0
AP: 1 "p"
acc-name: Rabin 2
Acceptance: 4 (Fin(0) & Inf(1)) | (Fin(2) & Inf(3))
--BODY--
State: 0 {1 2}
[!0] 1
[0] 1
State: 1 {1 3}
[!0] 0
[0] 1
--END--
""")


def test_overlapping_pair_components_merge_into_one(solver_cmd):
    """One accepting component of all 5 product states: the only indicator
    row (xii) covers every pair."""
    p = build_product(OVERLAP_MODEL, OVERLAP_DRA)
    assert len(p.states) == 5
    spec = spec_from_json({"dra": "x", "ss": [
        {"formula": "p", "lower": 0.1, "upper": 0.8}]})
    model = build_program(p, accepting_mecs(mec_decomposition(p), p), spec)
    assert len(model.amecs) == 1
    row = next(r for r in model.rows if r.name == "c_xii_0")
    assert sorted(k for _, k in row.terms[:-1]) == list(range(len(p.succ)))
    result = synthesize(OVERLAP_MODEL, OVERLAP_DRA, spec,
                        solver=SolverConfig(command=solver_cmd, timeout=120))
    assert result.status == "verified"


# Three 8-state products of the oracle fuzz below (ss rows on; seed 13 at
# det_prob 0.6, instances 5 and 48 of the stream, and seed 22 at det_prob
# 0.75, instance 29).  Each has 16 pairs, of which its one accepting
# component retains 2.  While the other 14 x columns were free, every
# candidate put 79-100 % of x on them, the cuts removed one rejecting loop
# at a time, and the loop stopped unverified after 64 rounds.  With those
# columns pinned to 0 each run ends in the oracle's verdict after 1 round.
RUNAWAY_13_5_MODEL = model_from_json({
    "states": [{"id": "s0", "labels": []}, {"id": "s1", "labels": ["p"]},
               {"id": "s2", "labels": []}, {"id": "s3", "labels": ["p"]}],
    "actions": ["a0", "a1"], "ap": ["p"], "initial": "s0",
    "transitions": [
        {"from": s, "action": a, "to": t, "p": p} for s, a, t, p in [
            ("s0", "a0", "s0", 0.19805519791180135),
            ("s0", "a0", "s1", 0.04899500656197786),
            ("s0", "a0", "s2", 0.29706982784091446),
            ("s0", "a0", "s3", 0.45587996768530625), ("s0", "a1", "s3", 1.0),
            ("s1", "a0", "s0", 0.27267810549907734),
            ("s1", "a0", "s1", 0.29999313302630765),
            ("s1", "a0", "s2", 0.2985477384699995),
            ("s1", "a0", "s3", 0.1287810230046157), ("s1", "a1", "s1", 1.0),
            ("s2", "a0", "s0", 0.21027229377242912),
            ("s2", "a0", "s1", 0.19997874205496313),
            ("s2", "a0", "s2", 0.27376977008570996),
            ("s2", "a0", "s3", 0.31597919408689784),
            ("s2", "a1", "s0", 0.19064102677083838),
            ("s2", "a1", "s1", 0.1011555841653368),
            ("s2", "a1", "s2", 0.2015085849398816),
            ("s2", "a1", "s3", 0.5066948041239432), ("s3", "a0", "s0", 1.0),
            ("s3", "a1", "s2", 1.0)]],
    "rewards": [
        {"from": s, "action": a, "to": t, "r": 1.0} for s, a, t in [
            ("s0", "a0", "s0"), ("s0", "a0", "s1"), ("s0", "a0", "s2"),
            ("s0", "a0", "s3"), ("s0", "a1", "s3"), ("s1", "a0", "s0"),
            ("s1", "a0", "s1"), ("s1", "a0", "s2"), ("s1", "a0", "s3"),
            ("s1", "a1", "s1"), ("s2", "a0", "s0"), ("s2", "a0", "s1"),
            ("s2", "a0", "s2"), ("s2", "a0", "s3")]],
})
RUNAWAY_13_5_DRA = parse_hoa("""HOA: v1
States: 3
Start: 0
AP: 1 "p"
acc-name: Rabin 1
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {0 1}
[!0] 2
[0] 1
State: 1 {1}
[!0] 2
[0] 0
State: 2
[!0] 1
[0] 1
--END--
""")


RUNAWAY_13_48_MODEL = model_from_json({
    "states": [{"id": "s0", "labels": ["p"]}, {"id": "s1", "labels": []},
               {"id": "s2", "labels": ["p"]}, {"id": "s3", "labels": []}],
    "actions": ["a0", "a1"], "ap": ["p"], "initial": "s0",
    "transitions": [
        {"from": s, "action": a, "to": t, "p": p} for s, a, t, p in [
            ("s0", "a0", "s0", 0.3817978928619476),
            ("s0", "a0", "s1", 0.15531899824598644),
            ("s0", "a0", "s2", 0.1994315145903164),
            ("s0", "a0", "s3", 0.2634515943017496), ("s0", "a1", "s3", 1.0),
            ("s1", "a0", "s0", 0.22243821161403302),
            ("s1", "a0", "s1", 0.06273767165537876),
            ("s1", "a0", "s2", 0.12203060327054796),
            ("s1", "a0", "s3", 0.5927935134600403), ("s1", "a1", "s1", 1.0),
            ("s2", "a0", "s0", 0.0400794492196156),
            ("s2", "a0", "s1", 0.15158558372381117),
            ("s2", "a0", "s2", 0.31378796159143857),
            ("s2", "a0", "s3", 0.4945470054651346), ("s2", "a1", "s3", 1.0),
            ("s3", "a0", "s2", 1.0), ("s3", "a1", "s0", 1.0)]],
    "rewards": [
        {"from": s, "action": a, "to": t, "r": 1.0} for s, a, t in [
            ("s0", "a1", "s3"), ("s2", "a0", "s0"), ("s2", "a0", "s1"),
            ("s2", "a0", "s2"), ("s2", "a0", "s3"), ("s3", "a0", "s2")]],
})
RUNAWAY_13_48_DRA = parse_hoa("""HOA: v1
States: 3
Start: 0
AP: 1 "p"
acc-name: Rabin 2
Acceptance: 4 (Fin(0) & Inf(1)) | (Fin(2) & Inf(3))
--BODY--
State: 0 {0 1}
[!0] 1
[0] 2
State: 1 {3}
[!0] 0
[0] 1
State: 2 {1 2 3}
[!0] 1
[0] 1
--END--
""")


RUNAWAY_22_29_MODEL = model_from_json({
    "states": [{"id": "s0", "labels": ["p"]}, {"id": "s1", "labels": ["p"]},
               {"id": "s2", "labels": []}, {"id": "s3", "labels": []}],
    "actions": ["a0", "a1"], "ap": ["p"], "initial": "s0",
    "transitions": [
        {"from": s, "action": a, "to": t, "p": p} for s, a, t, p in [
            ("s0", "a0", "s0", 0.5384273042968941),
            ("s0", "a0", "s1", 0.14273024599951128),
            ("s0", "a0", "s2", 0.07511692921815212),
            ("s0", "a0", "s3", 0.24372552048544255),
            ("s0", "a1", "s0", 0.07932109229233901),
            ("s0", "a1", "s1", 0.21477884309890988),
            ("s0", "a1", "s2", 0.3047834730530302),
            ("s0", "a1", "s3", 0.40111659155572094), ("s1", "a0", "s0", 1.0),
            ("s1", "a1", "s1", 1.0), ("s2", "a0", "s0", 0.0377112653171282),
            ("s2", "a0", "s1", 0.5282455799675517),
            ("s2", "a0", "s2", 0.31341256898962394),
            ("s2", "a0", "s3", 0.12063058572569603), ("s2", "a1", "s1", 1.0),
            ("s3", "a0", "s0", 0.16478337691983372),
            ("s3", "a0", "s1", 0.1564395050133413),
            ("s3", "a0", "s2", 0.2688473311336243),
            ("s3", "a0", "s3", 0.4099297869332006), ("s3", "a1", "s1", 1.0)]],
    "rewards": [
        {"from": s, "action": a, "to": t, "r": 1.0} for s, a, t in [
            ("s0", "a1", "s0"), ("s0", "a1", "s1"), ("s0", "a1", "s2"),
            ("s0", "a1", "s3"), ("s2", "a1", "s1"), ("s3", "a0", "s0"),
            ("s3", "a0", "s1"), ("s3", "a0", "s2"), ("s3", "a0", "s3")]],
})
RUNAWAY_22_29_DRA = parse_hoa("""HOA: v1
States: 3
Start: 0
AP: 1 "p"
acc-name: Rabin 2
Acceptance: 4 (Fin(0) & Inf(1)) | (Fin(2) & Inf(3))
--BODY--
State: 0 {1 2 3}
[!0] 2
[0] 2
State: 1 {0 1 3}
[!0] 1
[0] 0
State: 2
[!0] 1
[0] 0
--END--
""")


@pytest.mark.parametrize("model, dra, lower, upper, verdict", [
    (RUNAWAY_13_5_MODEL, RUNAWAY_13_5_DRA, 0.1, 0.8, "verified"),
    (RUNAWAY_13_48_MODEL, RUNAWAY_13_48_DRA, 0.3, 0.8, "infeasible"),
    (RUNAWAY_22_29_MODEL, RUNAWAY_22_29_DRA, 0.0, 1.0, "verified"),
], ids=["seed13-5", "seed13-48", "seed22-29"])
def test_former_runaway_loops_end_in_the_oracle_verdict(model, dra, lower,
                                                        upper, verdict,
                                                        solver_cmd):
    spec = spec_from_json({"dra": "x", "ss": [
        {"formula": "p", "lower": lower, "upper": upper}]})
    assert len(build_product(model, dra).states) == 8
    oracle = brute_force_synth(model, dra, spec)
    assert (oracle is not None) == (verdict == "verified")
    result = synthesize(model, dra, spec,
                        solver=SolverConfig(command=solver_cmd, timeout=120),
                        max_cut_rounds=8)
    assert result.status == verdict, result.detail


def oracle_instance(seed, det_prob, ss):
    """A desk-size instance small enough for the exhaustive oracle: at most
    4 model states, 2 actions and a 3-node automaton with one or two Rabin
    pairs, optionally with one steady-state row on p."""
    rng = np.random.default_rng(seed)
    m = random_lmdp(rng, int(rng.integers(2, 5)), 2, ap=("p",),
                    det_prob=det_prob)
    d = random_dra(rng, int(rng.integers(2, 4)), ap=("p",),
                   n_pairs=int(rng.integers(1, 3)))
    rows = []
    if ss:
        rows.append({"formula": "p",
                     "lower": float(rng.choice([0.0, 0.1, 0.3])),
                     "upper": float(rng.choice([0.5, 0.8, 1.0]))})
    return m, d, spec_from_json({"dra": "x", "ss": rows})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       det_prob=st.sampled_from([0.6, 0.75, 0.9]), ss=st.booleans())
def test_verdicts_agree_with_the_exhaustive_oracle(seed, det_prob, ss,
                                                   solver_cmd):
    """Within the default round budget the verdict is the oracle's:
    ``verified`` where a policy exists, ``infeasible`` where none does."""
    m, d, spec = oracle_instance(seed, det_prob, ss)
    oracle = brute_force_synth(m, d, spec)
    result = synthesize(m, d, spec,
                        solver=SolverConfig(command=solver_cmd, timeout=120),
                        max_cut_rounds=DEFAULT_MAX_CUT_ROUNDS)
    assert result.status == ("infeasible" if oracle is None
                             else "verified"), result.detail


@pytest.mark.parametrize("seed", [55, 269])
def test_objective_is_the_verified_policys_long_run_reward(seed, solver_cmd):
    """Found on the fuzz set (det_prob=0.6, ss=False): the policy reaches two
    BSCCs and the solver's x sits on one of them, so the value of x (0.5 and
    1.0) is not the policy's reward per step.  The reported objective is
    that reward, checked here against power iteration on the induced
    chain."""
    m, d, spec = oracle_instance(seed, 0.6, False)
    result = synthesize(m, d, spec,
                        solver=SolverConfig(command=solver_cmd, timeout=120))
    assert result.status == "verified"
    p = build_product(m, d)
    limit = power_iteration_limit(named_chain(p, induce_chain(p,
                                                              result.policy)))
    reward = 0.0
    for (s, q), mass in limit.items():
        a = result.policy.choice[(s, q)]
        reward += mass * sum(prob * m.reward_value(s, a, t)
                             for t, prob in m.trans[(s, a)].items())
    assert result.objective == pytest.approx(reward, abs=1e-4)


def test_no_policy_reaching_the_components_surely_is_infeasible(solver_cmd):
    """Found by the property above (seed=10000000, det_prob=0.6, ss=False).
    Every action of the initial state (s0, q2) moves to (s0, q0) with
    positive probability, and every action there enters the closed set of
    (s0, q1), (s1, q1) and (s2, q1), all in Fin, with positive probability.
    So no policy reaches the accepting components {(s1, q2)} and
    {(s2, q2)} with probability 1, which needs no solve; the cut loop alone
    needs 85 rounds to prove it."""
    m, d, spec = oracle_instance(10_000_000, 0.6, False)
    assert brute_force_synth(m, d, spec) is None
    result = synthesize(m, d, spec,
                        solver=SolverConfig(command=solver_cmd, timeout=120))
    assert result.status == "infeasible" and result.rounds == 0
    assert result.detail == ("no policy reaches an accepting end component "
                             "with probability 1")

def rare_step_model():
    """s0 -go-> s1 with probability 1e-6, else back to s0; s1 absorbs and
    is labelled a."""
    return validate_lmdp(Lmdp(
        states=("s0", "s1"), actions=("go",),
        enabled={"s0": ("go",), "s1": ("go",)},
        trans={("s0", "go"): {"s1": 1e-6, "s0": 1.0 - 1e-6},
               ("s1", "go"): {"s1": 1.0}},
        reward={}, ap=("a",),
        labels={"s0": frozenset(), "s1": frozenset(["a"])}, initial="s0"))


def test_policy_behind_a_rare_edge_verifies(solver_cmd, monkeypatch):
    """The edge into s1 carries less than 1e-4, the increment a product of
    two states used to get, so s1 could not be flagged and the only policy,
    which spends all its long-run mass on s1, was declared infeasible."""
    spec = spec_from_json({"dra": "x", "ss": [
        {"formula": "a", "lower": 0.9, "upper": 1.0}]})
    for seeds in each_search(monkeypatch):
        result = synthesize(
            rare_step_model(), TRUE_DRA, spec,
            solver=SolverConfig(command=solver_cmd, timeout=120))
        assert result.status == "verified" and result.rounds == 1, seeds
        assert result.report.ss_results[0].mass == pytest.approx(1.0)


def chain_lmdp(trans, labels, initial):
    """An instance over the states of ``trans``; each state enables the
    actions its rows name, and p labels the states in ``labels``."""
    states = tuple(dict.fromkeys(s for s, _ in trans))
    actions = tuple(dict.fromkeys(a for _, a in trans))
    return validate_lmdp(Lmdp(
        states=states, actions=actions,
        enabled={s: tuple(a for t, a in trans if t == s) for s in states},
        trans=trans, reward={}, ap=("p",),
        labels={s: frozenset(["p"] if s in labels else []) for s in states},
        initial=initial))


def fair_split_model(stall=0.0):
    """c0 .. c5 each move on to the next state by l and by r (r stays put
    with probability ``stall``); c5 moves to split, which goes to good
    (labelled p) or bad with probability 0.5 each; both absorb."""
    cs = [f"c{i}" for i in range(6)] + ["split"]
    trans = {}
    for s, nxt in zip(cs, cs[1:]):
        trans[(s, "l")] = {nxt: 1.0}
        trans[(s, "r")] = {s: stall, nxt: 1.0 - stall} if stall else {
            nxt: 1.0}
    trans[("split", "l")] = {"good": 0.5, "bad": 0.5}
    trans[("good", "l")] = {"good": 1.0}
    trans[("bad", "l")] = {"bad": 1.0}
    return chain_lmdp(trans, {"good"}, "c0")


P_HIGH = spec_from_json({"dra": "x", "ss": [
    {"formula": "p", "lower": 0.9, "upper": 1.0}]})


def test_cuts_exclude_every_policy_with_the_same_steps(solver_cmd,
                                                       monkeypatch):
    """l and r are the same step at every c_i, so the 64 policies induce one
    chain: the no-good cut sums both binaries at each c_i and excludes them
    all, and the next solve is infeasible (cuts that exclude one policy a
    round spend all 64 rounds and end unverified)."""
    m = fair_split_model()
    assert brute_force_synth(m, TRUE_DRA, P_HIGH) is None
    p = build_product(m, TRUE_DRA)
    model = build_program(p, accepting_mecs(mec_decomposition(p), p), P_HIGH)
    pi = Policy({sq: "l" for sq in p.states})
    (nogood,) = _rejection_cuts(
        model, pi, verify_policy(m, TRUE_DRA, P_HIGH, pi, product=p), 0)
    pi0 = Columns(p).pi0
    assert nogood.terms == tuple((1.0, pi0 + k) for k in range(len(p.succ)))
    assert nogood.rhs == len(p.states) - 1
    for seeds in each_search(monkeypatch):
        result = synthesize(
            m, TRUE_DRA, P_HIGH,
            solver=SolverConfig(command=solver_cmd, timeout=120))
        assert result.status == "infeasible" and result.rounds == 2, seeds


@pytest.mark.xfail(strict=True, reason="x is some stationary measure, not the "
                   "limiting distribution from c0 (ROADMAP item 2)")
def test_distinct_chains_into_a_fair_split_are_infeasible(solver_cmd):
    """As above, but r stalls at c_i with probability 0.5, so the 64
    policies induce 64 different chains.  Each puts mass 0.5 on bad, yet
    the program admits x on good alone, and the no-good cuts exclude one
    policy a round: the run ends unverified after 64 rounds."""
    m = fair_split_model(stall=0.5)
    assert brute_force_synth(m, TRUE_DRA, P_HIGH) is None
    result = synthesize(m, TRUE_DRA, P_HIGH,
                        solver=SolverConfig(command=solver_cmd, timeout=120))
    assert result.status == "infeasible", result.detail


def test_a_rare_exit_costs_no_extra_round(solver_cmd, monkeypatch):
    """s0 picks y into good (p, absorbing) or x into c0 .. c7, which lead to
    bad; both actions of c0 exit to trap with probability 1e-7.  The flow
    increment does not shrink with that probability (at 2e-9, below the
    solver's tolerances, rows (vi) could not keep the flag off good under
    x), so the first candidate verifies."""
    trans = {("s0", "y"): {"good": 1.0}, ("s0", "x"): {"c0": 1.0}}
    cs = [f"c{i}" for i in range(8)] + ["bad"]
    for s, nxt in zip(cs, cs[1:]):
        row = {nxt: 1.0 - 1e-7, "trap": 1e-7} if s == "c0" else {nxt: 1.0}
        trans.update({(s, "x"): row, (s, "y"): row})
    for s in ("good", "bad", "trap"):
        trans[(s, "x")] = {s: 1.0}
    m = chain_lmdp(trans, {"good"}, "s0")
    assert len(build_product(m, TRUE_DRA).states) == 12
    for seeds in each_search(monkeypatch):
        result = synthesize(
            m, TRUE_DRA, P_HIGH, IlpConfig(objective="feasibility"),
            solver=SolverConfig(command=solver_cmd, timeout=120))
        assert result.status == "verified" and result.rounds == 1, seeds


def test_a_bscc_no_rabin_pair_accepts_costs_no_extra_round(solver_cmd,
                                                           monkeypatch):
    """4x4 theta2 (GF a | FG b) deterministic grid, seed 2, feasibility.
    When row (xi) counted x on every pair of the Inf union, the solver put
    x on BSCCs that alternate between b cells and cells with neither a nor
    b, which fail both Rabin pairs, and the run took 6 rounds.  Counting
    only pairs some Rabin pair can accept, the first candidate verifies."""
    spec = load_spec("fixtures/specs/theta2.json")
    for seeds in each_search(monkeypatch):
        result = synthesize(
            generate_grid(GridSpec(4, 4, seed=2)), load_hoa(spec.dra_source),
            spec, IlpConfig(objective="feasibility"),
            solver=SolverConfig(command=solver_cmd, timeout=120))
        assert result.status == "verified" and result.rounds == 1, seeds
