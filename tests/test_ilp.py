import sys
from dataclasses import replace

import numpy as np
import pytest

from helpers import binaries, check_solution, fix_policy, six_state_until_lmdp
from ssltl.errors import ModelError, NoAcceptingStructureError, PolicyError, \
    SolverError
from ssltl.graph import accepting_mecs, mec_decomposition
from ssltl.hoa import Dra, letters_of, load_hoa, parse_hoa
from ssltl import milp_shim
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
    highs_arrays,
    parse_solution_text,
    solve,
)
from ssltl.model import GridSpec, Lmdp, generate_grid, load_spec, \
    spec_from_json, validate_lmdp
from ssltl.product import Policy, build_product
from ssltl.synthesis import _rejection_cuts, synthesize

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
    m = two_absorbing_model()
    model = build_for(m, TRUE_DRA, no_ss_spec())
    assert len(model.amecs) == 2
    names = column_names(model)
    iks = [n for n in names if n.startswith("iks_")]
    ik = [n for n in names if n.startswith("ik_")]
    xv_rows = [r for r in model.rows if r.name.startswith("c_xv_")]
    assert len(ik) == 2 and len(iks) == 6 and len(xv_rows) == 3


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


def test_epsilon_default_shrinks_with_product():
    cfg = IlpConfig()
    assert cfg.resolve_epsilon(10) == pytest.approx(1e-4)
    assert cfg.resolve_epsilon(10_000) == pytest.approx(1.0 / 40_000)


@pytest.mark.parametrize("knobs", [
    {"epsilon": 0.0}, {"epsilon": float("nan")}, {"epsilon": float("inf")},
    {"acc_eps": 0.0}, {"acc_eps": float("nan")},
    {"flow_ratio": 0.5}, {"flow_ratio": float("nan")},
    {"flow_ratio": float("inf")}, {"objective": "max_reward"}],
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
    return build_for(m, TRUE_DRA, spec, IlpConfig(epsilon=1e-4))


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
    cuts = _rejection_cuts(p, pi, 0)
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


def test_bundled_solve_reports_bound_gap_and_nodes(bundled_backend):
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
    assert (sol.bound, sol.gap, sol.nodes) == (None, None, None)


@pytest.mark.parametrize("name, build", [
    ("two_state.lp", golden_two_state_model),
    ("grid3_theta2_slip_cuts.lp", lambda: grid_with_cuts_model()[0]),
    ("3x3-theta4-det-reward", lambda: grid_with_cuts_model(
        3, 3, 1, "deterministic", "theta4", "expected_reward")[0]),
    ("4x4-theta2-det-g0", lambda: grid_with_cuts_model(
        4, 4, 0, "deterministic")[0]),
    ("4x3-theta4-slip-reward", lambda: grid_with_cuts_model(
        4, 3, 2, "slip", "theta4", "expected_reward")[0]),
])
def test_array_route_hands_highs_the_lp_file_program(monkeypatch,
                                                     bundled_backend, name,
                                                     build):
    """The bundled worker's arrays and the arrays ``milp_shim`` builds from
    the LP text are the same bytes, and both routes reach the same answer."""
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
    assert len(program) == len(file_args) == 9
    for ours, theirs in zip(program, file_args):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()

    sol = solve(model, SolverConfig(timeout=60.0))
    assert f"Model status: {milp_shim.model_status(res, 60.0)}" \
        == sol.solver_output
    if res.x is not None:
        assert sol.objective == pytest.approx(-res.fun, abs=1e-9)


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
    from ssltl.verify import brute_force_synth

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


def test_solver_launch_failure():
    m = one_state_model()
    model = build_for(m, TRUE_DRA, no_ss_spec())
    with pytest.raises(SolverError, match="launch"):
        solve(model, SolverConfig(command="definitely-not-a-solver {lp} {sol}"))


def test_default_solver_command_has_placeholders():
    cmd = default_solver_command()
    assert "{lp}" in cmd and "{sol}" in cmd


# ---------------------------------------------------------------------------
# Time limits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width, height, seed, lower, upper", [
    (3, 4, 1, 0.01, 0.5), (3, 4, 1, 0.9, 1.0), (4, 3, 0, 0.9, 1.0)])
def test_time_limit_without_a_point_is_a_timeout(bundled_backend, width,
                                                  height, seed, lower, upper):
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
