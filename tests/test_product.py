import numpy as np
import pytest

from helpers import (
    Lmc,
    LumpabilityError,
    aggregate,
    named_chain,
    six_state_until_lmdp,
    mirrored_bscc_fixture,
    product_chain,
    random_dra,
    random_irreducible_lmc,
    random_lmdp,
    simulate_steps,
)
from ssltl.errors import PolicyError
from ssltl.graph import accepting_mecs, bsccs, mec_decomposition
from ssltl.hoa import dra_step, load_hoa, parse_hoa
from ssltl.model import Lmdp, validate_lmdp
from ssltl.product import (
    Policy,
    build_product,
    induce_chain,
    policy_from_json,
    policy_to_json,
)

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


def one_state_model():
    return validate_lmdp(Lmdp(
        states=("s0",), actions=("go",), enabled={"s0": ("go",)},
        trans={("s0", "go"): {"s0": 1.0}}, reward={}, ap=(),
        labels={"s0": frozenset()}, initial="s0"))


def test_one_state_product():
    p = build_product(one_state_model(), TRUE_DRA)
    assert p.states == (("s0", "q0"),)
    assert p.initial == 0
    assert p.pairs(0) == range(0, 1) and p.actions(0) == ("go",)
    assert p.succ == ({0: 1.0},)
    # a self-loop is no edge of the flow graph
    assert p.edges == ()


def test_product_transition_rule_exact():
    rng = np.random.default_rng(13)
    m = random_lmdp(rng, 4, 2, ap=("p", "r"), det_prob=0.3)
    d = random_dra(rng, 3, ap=("p", "r"))
    p = build_product(m, d)
    assert len(p.states) <= len(m.states) * len(d.nodes)
    assert p.first[-1] == len(p.succ)
    for i, (s, q) in enumerate(p.states):
        for k, a in zip(p.pairs(i), p.actions(i)):
            row = {p.states[j]: prob for j, prob in p.succ[k].items()}
            for s2 in m.states:
                q2 = dra_step(d, q, m.letter(s2, d.alphabet))
                want = m.trans[(s, a)].get(s2, 0.0)
                got = row.get((s2, q2), 0.0)
                assert got == pytest.approx(want, abs=0)
                # every other automaton component carries zero mass
                for q_other in d.nodes:
                    if q_other != q2:
                        assert row.get((s2, q_other), 0.0) == 0.0
    assert p.edges == tuple(sorted({(i, j) for i in range(len(p.states))
                                    for k in p.pairs(i) for j in p.succ[k]
                                    if j != i}))


def test_until_instance_policy_trapped_in_amec():
    m = six_state_until_lmdp()
    d = load_hoa("fixtures/automata/fa_U_b.hoa")
    p = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(p), p)
    assert len(amecs) == 1
    pi = Policy(choice={sq: {"s0": "a2", "s3": "a1", "s4": "a2",
                             "s2": "a3"}.get(sq[0], "a3")
                        for sq in p.states})
    chain = induce_chain(p, pi)
    dec = bsccs(chain)
    assert len(dec.bsccs) == 1
    bscc = dec.bsccs[0]
    assert bscc <= amecs[0]
    from ssltl.chain import limiting_distribution
    mass_in_amec = sum(v for i, v in limiting_distribution(chain, dec).items()
                       if i in amecs[0])
    assert mass_in_amec == pytest.approx(1.0, abs=1e-12)


def test_induce_chain_deterministic_rows_and_absorbing():
    m = six_state_until_lmdp()
    d = load_hoa("fixtures/automata/fa_U_b.hoa")
    p = build_product(m, d)
    pi = Policy(choice={sq: "a3" for sq in p.states})  # all self-loops
    chain = induce_chain(p, pi)
    assert chain.states == (p.initial,)
    assert chain.rows[p.initial] == {p.initial: 1.0}


def test_induce_chain_missing_entry():
    m = six_state_until_lmdp()
    d = load_hoa("fixtures/automata/fa_U_b.hoa")
    p = build_product(m, d)
    pi = Policy(choice={p.states[p.initial]: "a1"})  # successor not covered
    with pytest.raises(PolicyError, match="no entry"):
        induce_chain(p, pi)


def test_reachable_bound():
    rng = np.random.default_rng(14)
    for _ in range(10):
        m = random_lmdp(rng, int(rng.integers(2, 5)), 2)
        d = random_dra(rng, int(rng.integers(2, 5)))
        p = build_product(m, d)
        assert len(p.states) <= len(m.states) * len(d.nodes)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_aggregate_projection_when_each_state_once():
    m = one_state_model()
    p = build_product(m, TRUE_DRA)
    chain = induce_chain(p, Policy(choice={p.states[p.initial]: "go"}))
    agg = aggregate(named_chain(p, chain))
    assert agg.states == ("s0",)
    assert agg.rows["s0"] == {"s0": 1.0}


def test_aggregate_of_irreducible_product_is_original_kernel():
    rng = np.random.default_rng(15)
    done = 0
    while done < 20:
        c = random_irreducible_lmc(rng, int(rng.integers(3, 8)))
        d = random_dra(rng, int(rng.integers(2, 5)))
        pc = product_chain(c, d)
        dec = bsccs(pc)
        if len(dec.bsccs) != 1 or dec.transient:
            continue  # not irreducible; draw again
        done += 1
        agg = aggregate(pc)
        assert set(agg.states) == set(c.states)
        for s in c.states:
            for s2 in c.states:
                assert agg.rows[s].get(s2, 0.0) == pytest.approx(
                    c.rows[s].get(s2, 0.0), abs=1e-12)


def test_aggregate_mirrored_fixture_matches_hand_built_kernel():
    product, original = mirrored_bscc_fixture()
    agg = aggregate(product)
    assert set(agg.states) == set(original.states)
    for s in original.states:
        assert agg.rows[s] == original.rows[s]


def test_aggregate_detects_non_lumpable_chain():
    rows = {
        ("s0", "q0"): {("s1", "q0"): 1.0},
        ("s1", "q0"): {("s0", "q0"): 1.0},
        ("s0", "q1"): {("s0", "q1"): 0.5, ("s1", "q1"): 0.5},
        ("s1", "q1"): {("s0", "q1"): 1.0},
    }
    chain = Lmc(states=tuple(rows), rows=rows, initial=("s0", "q0"))
    with pytest.raises(LumpabilityError, match="s0"):
        aggregate(chain)


def test_path_correspondence_under_shared_draws():
    rng = np.random.default_rng(16)
    for _ in range(8):
        c = random_irreducible_lmc(rng, int(rng.integers(3, 7)))
        d = random_dra(rng, int(rng.integers(2, 5)))
        pc = product_chain(c, d)
        dec = bsccs(pc)
        if len(dec.bsccs) != 1 or dec.transient:
            continue
        agg = aggregate(pc)
        # order successors of the product by the aggregate state order so the
        # same uniform draws walk corresponding rows
        order = {s: i for i, s in enumerate(agg.states)}
        seed = int(rng.integers(0, 2**32))
        walk_p = simulate_steps(pc, 200, np.random.default_rng(seed),
                                key_order={sq: order[sq[0]]
                                           for sq in pc.states})
        walk_a = simulate_steps(agg, 200, np.random.default_rng(seed),
                                key_order=order)
        assert [sq[0] for sq in walk_p] == list(walk_a)


# ---------------------------------------------------------------------------
# policy files
# ---------------------------------------------------------------------------

def test_policy_json_roundtrip(tmp_path):
    pi = Policy(choice={("s3", "q1"): "up", ("s0", "q0"): "left"})
    doc = policy_to_json(pi)
    assert doc == {"policy": [{"s": "s0", "q": "q0", "action": "left"},
                              {"s": "s3", "q": "q1", "action": "up"}]}
    assert policy_from_json(doc).choice == pi.choice
