import json

import numpy as np
import pytest

from ssltl.errors import ModelError
from ssltl.model import (
    GridSpec,
    Lmdp,
    PROB_TOL,
    generate_grid,
    labeled_subset,
    load_model,
    load_spec,
    model_from_json,
    model_to_json,
    parse_label_formula,
    save_model,
    validate_lmdp,
)

TWO_STATE = {
    "states": [{"id": "s0", "labels": ["a"]}, {"id": "s1", "labels": []}],
    "actions": ["stay"],
    "initial": "s0",
    "transitions": [
        {"from": "s0", "action": "stay", "to": "s0", "p": 1.0},
        {"from": "s1", "action": "stay", "to": "s1", "p": 1.0},
    ],
}


def test_load_two_absorbing_states(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(TWO_STATE))
    m = load_model(path)
    assert m.states == ("s0", "s1")
    assert m.trans[("s0", "stay")] == {"s0": 1.0}
    assert m.trans[("s1", "stay")] == {"s1": 1.0}
    assert m.ap == ("a",)


def test_row_sum_violation_names_offender():
    doc = json.loads(json.dumps(TWO_STATE))
    doc["transitions"][0]["p"] = 0.9
    with pytest.raises(ModelError) as err:
        model_from_json(doc)
    assert "s0" in str(err.value) and "stay" in str(err.value)


def test_unknown_target_state_rejected():
    doc = json.loads(json.dumps(TWO_STATE))
    doc["transitions"][0]["to"] = "nowhere"
    with pytest.raises(ModelError, match="nowhere"):
        model_from_json(doc)


def test_duplicate_action_id_rejected():
    doc = json.loads(json.dumps(TWO_STATE))
    doc["actions"] = ["stay", "stay"]
    with pytest.raises(ModelError, match="duplicate action id"):
        model_from_json(doc)


@pytest.mark.parametrize("field, value", [
    ("labels", "ab"), ("ap", "ab"), ("actions", "stay")])
def test_name_lists_must_be_lists(field, value):
    """A string is not read as the list of its characters."""
    doc = json.loads(json.dumps(TWO_STATE))
    if field == "labels":
        doc["states"][0]["labels"] = value
    else:
        doc[field] = value
    with pytest.raises(ModelError, match="must be a list"):
        model_from_json(doc)


def test_unknown_label_rejected():
    doc = json.loads(json.dumps(TWO_STATE))
    doc["ap"] = ["b"]
    with pytest.raises(ModelError, match="'a'"):
        model_from_json(doc)


def test_rewards_default_to_zero_and_roundtrip(tmp_path):
    doc = json.loads(json.dumps(TWO_STATE))
    doc["rewards"] = [{"from": "s0", "action": "stay", "to": "s0", "r": 2.5}]
    m = model_from_json(doc)
    assert m.reward_value("s0", "stay", "s0") == 2.5
    assert m.reward_value("s1", "stay", "s1") == 0.0
    path = tmp_path / "m.json"
    save_model(m, path)
    again = load_model(path)
    assert again == m


# ---------------------------------------------------------------------------
# Label formulas
# ---------------------------------------------------------------------------

def small_labeled_model(labels, ap=None):
    states = tuple(sorted(labels))
    trans = {(s, "x"): {s: 1.0} for s in states}
    if ap is None:
        ap = tuple(sorted(set().union(*labels.values())))
    return validate_lmdp(Lmdp(
        states=states, actions=("x",), enabled={s: ("x",) for s in states},
        trans=trans, reward={}, ap=ap,
        labels={s: frozenset(v) for s, v in labels.items()},
        initial=states[0]))


def test_labeled_subset_examples():
    m = small_labeled_model({"s1": {"a"}, "s2": {"a", "b"}, "s3": set()})
    assert labeled_subset(m, "a & !b") == {"s1"}
    assert labeled_subset(m, "true") == {"s1", "s2", "s3"}
    assert labeled_subset(m, "a | b") == {"s1", "s2"}


def test_labeled_subset_unknown_proposition():
    m = small_labeled_model({"s1": {"a"}})
    with pytest.raises(ModelError, match="zz"):
        labeled_subset(m, "zz")


def test_unknown_proposition_rejected_where_evaluation_never_reaches_it():
    """A typo in a spec formula is an error even behind a short circuit."""
    m = generate_grid(GridSpec(4, 4, seed=0))
    for psi in ("true | zz", "!true & zz", "a | zz"):
        with pytest.raises(ModelError, match="unknown proposition 'zz'"):
            labeled_subset(m, psi)
        with pytest.raises(ModelError, match="unknown proposition 'zz'"):
            labeled_subset(m, parse_label_formula(psi))


def test_formula_parser_precedence_and_parens():
    f, _ = parse_label_formula("!a & b | c")
    # '|' binds loosest: (!a & b) | c
    assert f(frozenset(["c"]))
    assert f(frozenset(["b"]))
    assert not f(frozenset(["a", "b", "c"]) - frozenset(["b", "c"]))
    g, _ = parse_label_formula("!(a & b)")
    assert g(frozenset(["a"]))
    assert not g(frozenset(["a", "b"]))


def test_formula_parse_errors():
    for bad in ("", "a &", "(a", "a b", "&a"):
        with pytest.raises(ModelError):
            parse_label_formula(bad)


def test_labeled_subset_boolean_algebra_random():
    rng = np.random.default_rng(7)
    ap = ("a", "b", "c")
    for _ in range(50):
        labels = {f"s{i}": frozenset(p for p in ap if rng.random() < 0.5)
                  for i in range(6)}
        m = small_labeled_model(labels, ap=ap)
        psi1 = parse_label_formula("a & !b")
        psi2 = parse_label_formula("c | b")
        s1 = labeled_subset(m, psi1)
        s2 = labeled_subset(m, psi2)
        neg = "!(a & !b)"
        conj = "(a & !b) & (c | b)"
        assert labeled_subset(m, neg) == frozenset(m.states) - s1
        assert labeled_subset(m, conj) == s1 & s2


# ---------------------------------------------------------------------------
# Gridworld generator
# ---------------------------------------------------------------------------

def test_grid_4x4_deterministic_zero_reward():
    m = generate_grid(GridSpec(4, 4, seed=3, reward_mode="zero"))
    assert len(m.states) == 16
    rows = [(s, a) for s in m.states for a in m.enabled[s]]
    assert len(rows) == 64
    for key in rows:
        row = m.trans[key]
        assert len(row) == 1 and abs(sum(row.values()) - 1.0) <= PROB_TOL
    assert not m.reward


def test_grid_1x1_all_actions_self_loop():
    m = generate_grid(GridSpec(1, 1, seed=0))
    assert m.states == ("s0",)
    for a in m.actions:
        assert m.trans[("s0", a)] == {"s0": 1.0}


def test_grid_same_seed_byte_identical():
    a = generate_grid(GridSpec(4, 4, seed=42, dynamics="slip"))
    b = generate_grid(GridSpec(4, 4, seed=42, dynamics="slip"))
    assert json.dumps(model_to_json(a)) == json.dumps(model_to_json(b))
    c = generate_grid(GridSpec(4, 4, seed=43, dynamics="slip"))
    assert json.dumps(model_to_json(a)) != json.dumps(model_to_json(c))


def test_grid_quarters_partition():
    m = generate_grid(GridSpec(4, 4, seed=11))
    assert m.ap == ("a", "b", "c", "d")
    for prop in m.ap:
        assert len(labeled_subset(m, prop)) == 4
    # quarters are disjoint singleton labels
    for s in m.states:
        assert len(m.labels[s]) == 1


def test_grid_slip_corner_stays_with_09():
    m = generate_grid(GridSpec(3, 3, seed=5, dynamics="slip"))
    # top-left corner, moving left: 0.8 blocked main + 0.1 blocked 'up'
    row = m.trans[("s0", "left")]
    assert row["s0"] == pytest.approx(0.9, abs=1e-15)
    assert row["s3"] == pytest.approx(0.1, abs=1e-15)  # lateral 'down'


def test_grid_slip_interior_row():
    m = generate_grid(GridSpec(3, 3, seed=5, dynamics="slip"))
    row = m.trans[("s4", "right")]  # center cell
    assert row == {"s5": pytest.approx(0.8), "s1": pytest.approx(0.1),
                   "s7": pytest.approx(0.1)}


def test_grid_rows_stochastic_after_generate():
    for dyn in ("deterministic", "slip"):
        m = generate_grid(GridSpec(5, 3, seed=9, dynamics=dyn))
        for s in m.states:
            for a in m.enabled[s]:
                assert abs(sum(m.trans[(s, a)].values()) - 1.0) <= PROB_TOL


def test_grid_initial_is_top_left():
    m = generate_grid(GridSpec(4, 4, seed=0))
    assert m.initial == "s0"


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------

def test_load_spec_single_interval(tmp_path):
    (tmp_path / "d.hoa").write_text("stub")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"dra": "d.hoa", "ss": [{"formula": "d", "lower": 0.01, "upper": 0.5}]}))
    spec = load_spec(path)
    assert len(spec.ss) == 1
    assert spec.ss[0].lower == 0.01 and spec.ss[0].upper == 0.5
    assert spec.dra_source == str(tmp_path / "d.hoa")


def test_load_spec_rejects_inverted_interval(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"dra": "d.hoa", "ss": [{"formula": "d", "lower": 0.6, "upper": 0.5}]}))
    with pytest.raises(ModelError, match="lower"):
        load_spec(path)


def test_load_spec_empty_ss_is_pure_ltl(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dra": "d.hoa", "ss": []}))
    spec = load_spec(path)
    assert spec.ss == ()
