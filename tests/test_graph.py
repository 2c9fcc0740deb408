import numpy as np

from helpers import (
    Lmc,
    six_state_until_lmdp,
    mirrored_bscc_fixture,
    product_chain,
    random_dra,
    random_irreducible_lmc,
    simulate_steps,
)
from ssltl.graph import (
    Mec,
    accepting_mecs,
    bscc_accepting,
    bsccs,
    mec_decomposition,
    strongly_connected_components,
)
from ssltl.hoa import Dra, letters_of, load_hoa
from ssltl.model import GridSpec, generate_grid
from ssltl.product import ProductLmdp, build_product


def chain(states, rows, initial=None):
    return Lmc(states=tuple(states), rows=rows,
               initial=initial or states[0])


def test_two_absorbing_states():
    c = chain(["x", "y"], {"x": {"x": 1.0}, "y": {"y": 1.0}})
    dec = bsccs(c)
    assert dec.bsccs == (frozenset({"x"}), frozenset({"y"}))
    assert dec.transient == frozenset()


def test_line_with_terminal_loop():
    c = chain(["s0", "s1", "s2"],
              {"s0": {"s1": 1.0}, "s1": {"s2": 1.0}, "s2": {"s2": 1.0}})
    dec = bsccs(c)
    assert dec.bsccs == (frozenset({"s2"}),)
    assert dec.transient == {"s0", "s1"}


def test_mirrored_fixture_decomposition():
    product, _ = mirrored_bscc_fixture()
    dec = bsccs(product)
    assert len(dec.bsccs) == 2
    assert sorted(len(b) for b in dec.bsccs) == [4, 4]
    assert dec.transient == {("s0", "q0")}


def test_bscc_union_plus_transient_covers_and_walks_end_inside():
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = random_irreducible_lmc(rng, int(rng.integers(3, 8)))
        d = random_dra(rng, int(rng.integers(2, 5)))
        pc = product_chain(c, d)
        dec = bsccs(pc)
        covered = set().union(*dec.bsccs) if dec.bsccs else set()
        assert covered | dec.transient == set(pc.states)
        walk = simulate_steps(pc, 10_000, rng)
        assert any(walk[-1] in b for b in dec.bsccs)


def test_scc_order_is_reverse_topological():
    succ = {"a": ["b"], "b": ["c"], "c": []}
    comps = strongly_connected_components(["a", "b", "c"], succ)
    assert comps == [["c"], ["b"], ["a"]]


# ---------------------------------------------------------------------------
# MEC decomposition
# ---------------------------------------------------------------------------

def one_state_self_loop_product():
    from ssltl.model import Lmdp, validate_lmdp
    from ssltl.hoa import parse_hoa

    m = validate_lmdp(Lmdp(
        states=("s0",), actions=("go",), enabled={"s0": ("go",)},
        trans={("s0", "go"): {"s0": 1.0}}, reward={}, ap=(),
        labels={"s0": frozenset()}, initial="s0"))
    d = parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[t] 0
--END--
""")
    return build_product(m, d)


def test_mec_single_state_self_loop():
    p = one_state_self_loop_product()
    mecs = mec_decomposition(p)
    assert len(mecs) == 1
    assert p.states == (("s0", "q0"),)
    assert mecs[0].states == {0}
    assert [p.actions(0)[k - p.first[0]] for k in mecs[0].pairs] == ["go"]


def test_mec_drain_to_absorbing():
    from ssltl.model import Lmdp, validate_lmdp
    from ssltl.hoa import parse_hoa

    m = validate_lmdp(Lmdp(
        states=("s1", "s2"), actions=("go",),
        enabled={"s1": ("go",), "s2": ("go",)},
        trans={("s1", "go"): {"s2": 1.0}, ("s2", "go"): {"s2": 1.0}},
        reward={}, ap=(), labels={"s1": frozenset(), "s2": frozenset()},
        initial="s1"))
    d = parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[t] 0
--END--
""")
    p = build_product(m, d)
    mecs = mec_decomposition(p)
    assert len(mecs) == 1
    assert {p.states[i] for i in mecs[0].states} == {("s2", "q0")}


def brute_force_mecs(product):
    """Exhaustive: every subset closed under some non-empty retained pair
    choice and strongly connected is an end component; keep the maximal ones."""
    n = len(product.states)
    ecs = []
    for mask in range(1, 1 << n):
        subset = {i for i in range(n) if mask >> i & 1}
        retained = {}
        ok = True
        for i in subset:
            pairs = [k for k in product.pairs(i)
                     if all(j in subset
                            for j, p in product.succ[k].items() if p > 0)]
            if not pairs:
                ok = False
                break
            retained[i] = pairs
        if not ok:
            continue
        succ = {i: sorted({j for k in retained[i]
                           for j, p in product.succ[k].items() if p > 0})
                for i in subset}
        comps = strongly_connected_components(sorted(subset), succ)
        if len(comps) == 1:
            ecs.append(frozenset(subset))
    maximal = [e for e in ecs if not any(e < f for f in ecs)]
    return set(maximal)


def test_mec_decomposition_matches_brute_force():
    rng = np.random.default_rng(77)
    from helpers import random_lmdp

    for trial in range(12):
        m = random_lmdp(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        d = random_dra(rng, 2, ap=("p",))
        p = build_product(m, d)
        if len(p.states) > 10:
            continue
        got = {mec.states for mec in mec_decomposition(p)}
        want = brute_force_mecs(p)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_mec_output_closed_and_strongly_connected_on_grid_product():
    rng = np.random.default_rng(5)
    m = generate_grid(GridSpec(4, 4, seed=21))
    d = load_hoa("fixtures/automata/fa_U_b.hoa")
    p = build_product(m, d)
    mecs = mec_decomposition(p)
    assert mecs
    for mec in mecs:
        kept = {i: [k for k in mec.pairs if k in p.pairs(i)]
                for i in mec.states}
        assert sorted(k for ks in kept.values() for k in ks) == list(mec.pairs)
        for i in mec.states:
            assert kept[i], f"state {p.states[i]} kept no action"
            for k in kept[i]:
                targets = {j for j, prob in p.succ[k].items() if prob > 0}
                assert targets <= mec.states
        succ = {i: sorted({j for k in kept[i]
                           for j, prob in p.succ[k].items() if prob > 0})
                for i in mec.states}
        comps = strongly_connected_components(sorted(mec.states), succ)
        assert len(comps) == 1
    # pairwise disjoint
    all_states = [sq for mec in mecs for sq in mec.states]
    assert len(all_states) == len(set(all_states))


# ---------------------------------------------------------------------------
# Accepting MECs / BSCCs
# ---------------------------------------------------------------------------

def two_pair_dra():
    nodes = ("q0", "q1", "q2")
    delta = {(q, letter): "q0" for q in nodes for letter in letters_of(("p",))}
    return Dra(nodes=nodes, initial="q0", alphabet=("p",), delta=delta,
               pairs=((frozenset(), frozenset({"q1"})),
                      (frozenset({"q0"}), frozenset({"q2"}))))


def node_product(d):
    """A stand-in product whose state i is ("s", d.nodes[i]); acceptance only
    reads the states and the automaton."""
    n = len(d.nodes)
    return ProductLmdp(model=None, dra=d,
                       states=tuple(("s", q) for q in d.nodes), initial=0,
                       first=(0,) * (n + 1), succ=(), edges=())


def test_accepting_mec_pair_witnesses():
    d = two_pair_dra()
    good = Mec(states=frozenset({1}), pairs=(0,))      # ("s", "q1")
    out = accepting_mecs([good], node_product(d))
    assert out == [good]


def test_mec_touching_every_fin_rejected():
    d = Dra(nodes=("q0", "q1"), initial="q0", alphabet=("p",),
            delta={(q, letter): "q0" for q in ("q0", "q1")
                   for letter in letters_of(("p",))},
            pairs=((frozenset({"q0"}), frozenset({"q1"})),))
    # ("s", "q0") and ("s", "q1")
    bad = Mec(states=frozenset({0, 1}), pairs=(0, 1))
    assert accepting_mecs([bad], node_product(d)) == []


def test_until_product_has_unique_amec():
    m = six_state_until_lmdp()
    d = load_hoa("fixtures/automata/fa_U_b.hoa")
    p = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(p), p)
    assert len(amecs) == 1
    qs = {p.states[i][1] for i in amecs[0].states}
    assert qs == {"q2"}


def test_bscc_accepting_examples():
    d = Dra(nodes=("q0",), initial="q0", alphabet=(),
            delta={("q0", frozenset()): "q0"},
            pairs=((frozenset(), frozenset({"q0"})),))
    assert bscc_accepting({0}, node_product(d))           # ("s", "q0")
    d2 = Dra(nodes=("q0", "q1"), initial="q0", alphabet=(),
             delta={("q0", frozenset()): "q0", ("q1", frozenset()): "q1"},
             pairs=((frozenset(), frozenset({"q1"})),))
    assert not bscc_accepting({0}, node_product(d2))
