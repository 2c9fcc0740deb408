import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import EnumerationLimitError, brute_force_synth, random_dra, \
    random_lmdp
from ssltl.hoa import Dra, letters_of, parse_hoa
from ssltl.ilp import IlpConfig, SolverConfig
from ssltl.model import Lmdp, spec_from_json, validate_lmdp
from ssltl.product import Policy, build_product, induce_chain
from ssltl.synthesis import synthesize
from ssltl.verify import verify_policy

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


def spec_of(ss):
    return spec_from_json({"dra": "unused", "ss": ss})


def one_state_model():
    return validate_lmdp(Lmdp(
        states=("s0",), actions=("go",), enabled={"s0": ("go",)},
        trans={("s0", "go"): {"s0": 1.0}}, reward={},
        ap=("g",), labels={"s0": frozenset(["g"])}, initial="s0"))


def test_trivial_instance_verdict_true():
    m = one_state_model()
    spec = spec_of([{"formula": "g", "lower": 1.0, "upper": 1.0}])
    report = verify_policy(m, TRUE_DRA, spec, Policy({("s0", "q0"): "go"}))
    assert report.verdict
    assert report.unichain and report.shared_state == "s0"
    assert [len(b) for b in report.bsccs] == [1]
    assert report.ss_results[0].mass == pytest.approx(1.0)


def branching_model():
    return validate_lmdp(Lmdp(
        states=("s0", "s1", "s2"), actions=("go1", "go2"),
        enabled={"s0": ("go1", "go2"), "s1": ("go1", "go2"),
                 "s2": ("go1", "go2")},
        trans={("s0", "go1"): {"s1": 1.0}, ("s0", "go2"): {"s2": 1.0},
               ("s1", "go1"): {"s1": 1.0}, ("s1", "go2"): {"s0": 1.0},
               ("s2", "go1"): {"s2": 1.0}, ("s2", "go2"): {"s0": 1.0}},
        reward={}, ap=("p", "r"),
        labels={"s0": frozenset(), "s1": frozenset(["p"]),
                "s2": frozenset(["r"])},
        initial="s0"))


def p_only_dra():
    """Accepting node is entered exactly on letters containing p."""
    nodes = ("q0", "q1")
    delta = {}
    for q in nodes:
        for letter in letters_of(("p",)):
            delta[(q, letter)] = "q1" if "p" in letter else "q0"
    return Dra(nodes=nodes, initial="q0", alphabet=("p",), delta=delta,
               pairs=((frozenset(), frozenset({"q1"})),))


def test_trapping_in_rejecting_bscc_fails_rabin():
    m = branching_model()
    d = p_only_dra()
    p = build_product(m, d)
    pi = Policy({sq: ("go2" if sq[0] == "s0" else "go1") for sq in p.states})
    # s0 -> s2, then loop at s2 forever: never reads p, never enters q1
    report = verify_policy(m, d, spec_of([]), pi, product=p)
    assert report.rabin_ok == (False,)
    assert not report.verdict


def test_ss_interval_failure_detected():
    m = branching_model()
    d = p_only_dra()
    p = build_product(m, d)
    pi = Policy({sq: "go1" for sq in p.states})
    spec = spec_of([{"formula": "p", "lower": 0.0, "upper": 0.5}])
    report = verify_policy(m, d, spec, pi, product=p)
    # policy parks all mass on s1 (labeled p): mass 1 > 0.5
    assert report.rabin_ok == (True,)
    assert not report.ss_results[0].ok
    assert not report.verdict


def test_multichain_policy_rejected_without_shared_state():
    m = validate_lmdp(Lmdp(
        states=("s0", "s1", "s2"), actions=("go",),
        enabled={s: ("go",) for s in ("s0", "s1", "s2")},
        trans={("s0", "go"): {"s1": 0.5, "s2": 0.5},
               ("s1", "go"): {"s1": 1.0},
               ("s2", "go"): {"s2": 1.0}},
        reward={}, ap=(), labels={s: frozenset() for s in ("s0", "s1", "s2")},
        initial="s0"))
    p = build_product(m, TRUE_DRA)
    pi = Policy({sq: "go" for sq in p.states})
    report = verify_policy(m, TRUE_DRA, spec_of([]), pi, product=p)
    assert len(report.bsccs) == 2
    assert report.shared_state is None
    assert not report.unichain and not report.verdict


def test_monte_carlo_matches_aggregate_distribution():
    from helpers import simulate_steps

    m = branching_model()
    d = p_only_dra()
    p = build_product(m, d)
    pi = Policy({sq: "go2" if sq[0] == "s1" else
                 ("go1" if sq[0] == "s0" else "go1") for sq in p.states})
    # s0 -> s1 -> s0 -> s1 ... two-cycle; s2 unreachable
    report = verify_policy(m, d, spec_of([]), pi, product=p)
    assert report.unichain
    chain = induce_chain(p, pi)
    rng = np.random.default_rng(99)
    walk = simulate_steps(chain, 200_000, rng)
    counts = {}
    for i in walk[1:]:
        s = p.states[i][0]
        counts[s] = counts.get(s, 0) + 1
    tv = 0.5 * sum(abs(counts.get(s, 0) / (len(walk) - 1)
                       - report.aggregate_distribution[s])
                   for s in m.states)
    assert tv <= 0.01


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_brute_force_conflicting_bounds_returns_none():
    m = branching_model()
    spec = spec_of([{"formula": "p", "lower": 0.6, "upper": 1.0},
                    {"formula": "r", "lower": 0.6, "upper": 1.0}])
    assert brute_force_synth(m, TRUE_DRA, spec) is None


def test_brute_force_one_state_unique_policy():
    m = one_state_model()
    spec = spec_of([{"formula": "g", "lower": 1.0, "upper": 1.0}])
    pi = brute_force_synth(m, TRUE_DRA, spec)
    assert pi is not None and pi.choice == {("s0", "q0"): "go"}


def test_brute_force_enumeration_bound():
    rng = np.random.default_rng(3)
    m = random_lmdp(rng, 5, 2)
    d = random_dra(rng, 4, ap=("p",))
    with pytest.raises(EnumerationLimitError):
        brute_force_synth(m, d, spec_of([]), max_states=3)


def test_brute_force_finds_ss_balancing_cycle():
    m = branching_model()
    spec = spec_of([{"formula": "p", "lower": 0.4, "upper": 0.6}])
    pi = brute_force_synth(m, TRUE_DRA, spec)
    assert pi is not None
    report = verify_policy(m, TRUE_DRA, spec, pi)
    assert report.verdict
    assert report.ss_results[0].mass == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# solver/oracle agreement (preview battery; the acceptance suite runs 50)
# ---------------------------------------------------------------------------

def battery_instance(rng):
    from ssltl.product import build_product as bp

    while True:
        n_states = int(rng.integers(2, 4))
        n_actions = int(rng.integers(2, 4))
        m = random_lmdp(rng, n_states, n_actions, ap=("p", "r"),
                        det_prob=0.6)
        d = random_dra(rng, int(rng.integers(2, 4)), ap=("p",),
                       n_pairs=int(rng.integers(1, 3)))
        if len(bp(m, d).states) > 12:
            continue
        ss = []
        if rng.random() < 0.7:
            lo = float(np.round(rng.uniform(0.0, 0.7), 2))
            hi = float(np.round(rng.uniform(lo, 1.0), 2))
            ss.append({"formula": "p", "lower": lo, "upper": hi})
        if rng.random() < 0.3:
            ss.append({"formula": "r", "lower": 0.0,
                       "upper": float(np.round(rng.uniform(0.2, 1.0), 2))})
        return m, d, spec_of(ss)


def test_solver_and_oracle_agree_on_small_battery(solver_cmd):
    rng = np.random.default_rng(2024)
    solver = SolverConfig(command=solver_cmd, timeout=300)
    for i in range(15):
        m, d, spec = battery_instance(rng)
        oracle = brute_force_synth(m, d, spec)
        result = synthesize(m, d, spec, cfg=IlpConfig(), solver=solver,
                            max_cut_rounds=128)
        assert result.status in ("verified", "infeasible"), (
            f"instance {i}: solver pipeline ended {result.status}: "
            f"{result.detail}")
        assert (oracle is not None) == (result.status == "verified"), (
            f"instance {i}: oracle={'policy' if oracle else 'none'} but "
            f"pipeline={result.status}")
        if result.status == "verified":
            report = verify_policy(m, d, spec, result.policy)
            assert report.verdict


def test_ss_masses_over_quarter_partition_sum_to_one(solver_cmd):
    """Internal consistency: with formulas partitioning the label quarters,
    the achieved masses sum to at most 1 (up to 1e-9)."""
    from ssltl.model import GridSpec, generate_grid

    m = generate_grid(GridSpec(3, 3, seed=6))
    spec = spec_of([{"formula": f, "lower": 0.0, "upper": 1.0}
                    for f in ("a", "b", "c", "d")])
    result = synthesize(m, TRUE_DRA, spec,
                        solver=SolverConfig(command=solver_cmd, timeout=120))
    assert result.status == "verified"
    total = sum(r.mass for r in result.report.ss_results)
    assert total <= 1 + 1e-9
    assert total == pytest.approx(1.0, abs=1e-9)  # quarters cover all states


def test_report_does_not_depend_on_string_hashing():
    """4x4 slip grid, seed 1, theta2 spec, every product state taking its
    third action (right): summed in hash order, the ss mass of ``d`` read
    0x1.8p-1 or one ulp above it, depending on PYTHONHASHSEED."""
    code = ("import json\n"
            "from ssltl.hoa import load_hoa\n"
            "from ssltl.model import GridSpec, generate_grid, load_spec\n"
            "from ssltl.product import Policy, build_product\n"
            "from ssltl.verify import verify_policy\n"
            "m = generate_grid(GridSpec(4, 4, seed=1, dynamics='slip'))\n"
            "spec = load_spec('fixtures/specs/theta2.json')\n"
            "d = load_hoa(spec.dra_source)\n"
            "p = build_product(m, d)\n"
            "pi = Policy(choice={sq: p.actions(i)[2]\n"
            "                    for i, sq in enumerate(p.states)})\n"
            "print(json.dumps(verify_policy(m, d, spec, pi).to_json()))\n")
    root = Path(__file__).resolve().parent.parent
    reports = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120,
                              env=env, cwd=root)
        assert proc.returncode == 0, proc.stderr
        reports.add(proc.stdout)
    assert len(reports) == 1
