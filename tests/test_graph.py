import itertools
from dataclasses import replace

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
    accepting_mecs,
    almost_sure_reach,
    bscc_accepting,
    bsccs,
    mec_decomposition,
    pair_accepting_mecs,
    strongly_connected_components,
)
from ssltl.hoa import Dra, letters_of, load_hoa
from ssltl.model import GridSpec, Lmdp, generate_grid, validate_lmdp
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
    assert mecs[0] == {0}


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
    assert {p.states[i] for i in mecs[0]} == {("s2", "q0")}


def brute_force_ecs(product, allowed=None):
    """Exhaustive: every subset of ``allowed`` (default: all states) closed
    under some non-empty retained pair choice and strongly connected is an
    end component."""
    allowed = sorted(range(len(product.states)) if allowed is None
                     else allowed)
    ecs = []
    for mask in range(1, 1 << len(allowed)):
        subset = {i for b, i in enumerate(allowed) if mask >> b & 1}
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
    return ecs


def brute_force_mecs(product, allowed=None):
    ecs = brute_force_ecs(product, allowed)
    return {e for e in ecs if not any(e < f for f in ecs)}


def test_mec_decomposition_matches_brute_force():
    rng = np.random.default_rng(77)
    from helpers import random_lmdp

    for trial in range(12):
        m = random_lmdp(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        d = random_dra(rng, 2, ap=("p",))
        p = build_product(m, d)
        if len(p.states) > 10:
            continue
        got = set(mec_decomposition(p))
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
        kept = {i: [k for k in p.pairs(i) if set(p.succ[k]) <= mec]
                for i in mec}
        for i in mec:
            assert kept[i], f"state {p.states[i]} kept no action"
            for k in kept[i]:
                targets = {j for j, prob in p.succ[k].items() if prob > 0}
                assert targets <= mec
        succ = {i: sorted({j for k in kept[i]
                           for j, prob in p.succ[k].items() if prob > 0})
                for i in mec}
        comps = strongly_connected_components(sorted(mec), succ)
        assert len(comps) == 1
    # pairwise disjoint
    all_states = [sq for mec in mecs for sq in mec]
    assert len(all_states) == len(set(all_states))


# ---------------------------------------------------------------------------
# Accepting MECs / BSCCs
# ---------------------------------------------------------------------------

def node_product(d):
    """A stand-in product whose state i is ("s", d.nodes[i]); acceptance only
    reads the states and the automaton."""
    n = len(d.nodes)
    return ProductLmdp(model=None, dra=d,
                       states=tuple(("s", q) for q in d.nodes), initial=0,
                       first=(0,) * (n + 1), succ=(), edges=())


def cycling_product(pairs):
    """A one-state model looping on itself, times an automaton that moves
    q0 -> q1 -> q0 on every letter (q2 leads to q0 and is never reached):
    the product is one MEC of two states, (s, q0) = 0 and (s, q1) = 1, and
    neither state alone is an end component."""
    m = validate_lmdp(Lmdp(
        states=("s",), actions=("go",), enabled={"s": ("go",)},
        trans={("s", "go"): {"s": 1.0}}, reward={}, ap=("p",),
        labels={"s": frozenset()}, initial="s"))
    nodes = ("q0", "q1", "q2")
    step = {"q0": "q1", "q1": "q0", "q2": "q0"}
    d = Dra(nodes=nodes, initial="q0", alphabet=("p",),
            delta={(q, letter): step[q] for q in nodes
                   for letter in letters_of(("p",))},
            pairs=pairs)
    p = build_product(m, d)
    assert p.states == (("s", "q0"), ("s", "q1"))
    return p


def test_accepting_mec_pair_witnesses():
    """Pair 0 (no Fin, Inf on q1) accepts the whole MEC, which comes back
    unchanged; pair 1 (Fin on q0, Inf on q2) accepts nothing."""
    p = cycling_product(((frozenset(), frozenset({"q1"})),
                         (frozenset({"q0"}), frozenset({"q2"}))))
    assert accepting_mecs(mec_decomposition(p), p) == [frozenset({0, 1})]


def test_mec_touching_every_fin_rejected():
    """Each pair's Fin holds one of the two states, and the other state
    alone is no end component."""
    p = cycling_product(((frozenset({"q0"}), frozenset({"q1"})),
                         (frozenset({"q1"}), frozenset({"q0"}))))
    assert accepting_mecs(mec_decomposition(p), p) == []


def test_overlapping_accepting_ecs_form_one_component():
    """a <-> b <-> c, with Fin_0 on c's automaton node and Fin_1 on a's:
    pair 0 accepts the end component {a, b} and pair 1 accepts {b, c}.
    Neither contains the other; the accepting region's one MEC holds all
    three states, so the listed components stay disjoint."""
    m = validate_lmdp(Lmdp(
        states=("a", "b", "c"), actions=("left", "right"),
        enabled={"a": ("right",), "b": ("left", "right"), "c": ("left",)},
        trans={("a", "right"): {"b": 1.0}, ("b", "left"): {"a": 1.0},
               ("b", "right"): {"c": 1.0}, ("c", "left"): {"b": 1.0}},
        reward={}, ap=("x", "y"),
        labels={"a": frozenset(["x"]), "b": frozenset(),
                "c": frozenset(["y"])},
        initial="a"))
    nodes = ("qa", "qb", "qc")

    def node(letter):
        return "qa" if "x" in letter else "qc" if "y" in letter else "qb"

    d = Dra(nodes=nodes, initial="qb", alphabet=("x", "y"),
            delta={(q, letter): node(letter) for q in nodes
                   for letter in letters_of(("x", "y"))},
            pairs=((frozenset({"qc"}), frozenset({"qb"})),
                   (frozenset({"qa"}), frozenset({"qb"}))))
    p = build_product(m, d)
    assert p.states == (("a", "qa"), ("b", "qb"), ("c", "qc"))
    accepting = {e for e in brute_force_ecs(p) if bscc_accepting(e, p)}
    assert accepting == {frozenset({0, 1}), frozenset({1, 2})}
    assert accepting_mecs(mec_decomposition(p), p) == [frozenset({0, 1, 2})]


def test_accepting_mecs_are_the_mecs_of_the_accepting_region():
    """On small random products with one or two Rabin pairs, the listed
    components are the MECs of the union of all accepting end components,
    and each accepting end component lies inside exactly one of them."""
    from helpers import random_lmdp

    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(60):
        m = random_lmdp(rng, int(rng.integers(2, 5)), 2, det_prob=0.8)
        d = random_dra(rng, int(rng.integers(2, 4)), ap=("p",),
                       n_pairs=int(rng.integers(1, 3)))
        p = build_product(m, d)
        if len(p.states) > 10:
            continue
        accepting = [e for e in brute_force_ecs(p) if bscc_accepting(e, p)]
        region = set().union(*accepting)
        got = accepting_mecs(mec_decomposition(p), p)
        assert set(got) == brute_force_mecs(p, region)
        assert all(sum(e <= c for c in got) == 1 for e in accepting)
        checked += bool(accepting)
    assert checked >= 10



def test_pair_accepting_mecs_are_each_pairs_maximal_accepting_ecs():
    """On small random products with one or two Rabin pairs, the components
    listed for pair i are the maximal end components off S x Fin_i that
    meet S x Inf_i, whether the MECs or the accepting components are
    given."""
    from helpers import random_lmdp

    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(60):
        m = random_lmdp(rng, int(rng.integers(2, 5)), 2, det_prob=0.8)
        d = random_dra(rng, int(rng.integers(2, 4)), ap=("p",),
                       n_pairs=int(rng.integers(1, 3)))
        p = build_product(m, d)
        if len(p.states) > 10:
            continue
        mecs = mec_decomposition(p)
        got = pair_accepting_mecs(mecs, p)
        again = pair_accepting_mecs(accepting_mecs(mecs, p), p)
        assert len(got) == len(again) == len(d.pairs)
        for (fin, inf), comps, comps_again in zip(d.pairs, got, again):
            outside = [i for i, (_, q) in enumerate(p.states)
                       if q not in fin]
            want = {e for e in brute_force_mecs(p, outside)
                    if any(p.states[i][1] in inf for i in e)}
            assert len(comps) == len(want) and set(comps) == want
            assert len(comps_again) == len(want)
            assert set(comps_again) == want
            checked += bool(want)
    assert checked >= 10

def test_until_product_has_unique_amec():
    m = six_state_until_lmdp()
    d = load_hoa("fixtures/automata/fa_U_b.hoa")
    p = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(p), p)
    assert len(amecs) == 1
    qs = {p.states[i][1] for i in amecs[0]}
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


def surely_reaches(p, choice, i, target) -> bool:
    """Whether the deterministic policy ``choice`` (state -> pair) reaches
    ``target`` from state i with probability 1: every state it can reach
    from i before ``target`` can still reach ``target``."""
    def seen_from(start, stop):
        seen, stack = {start}, [start]
        while stack:
            u = stack.pop()
            if u in stop:
                continue
            for v in p.succ[choice[u]]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen
    return all(seen_from(u, target) & target
               for u in seen_from(i, target))


def test_almost_sure_reach_matches_brute_force():
    """Against every deterministic policy of small random products whose
    last model state is a trap: a state is listed exactly when some policy
    reaches the target set from it with probability 1."""
    from helpers import random_lmdp

    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(40):
        m = random_lmdp(rng, int(rng.integers(2, 5)), 2, det_prob=0.7)
        trap = m.states[-1]
        m = validate_lmdp(replace(m, reward={}, trans={
            **m.trans, **{(trap, a): {trap: 1.0} for a in m.actions}}))
        p = build_product(m, random_dra(rng, 2, ap=("p",)))
        if len(p.states) > 8:
            continue
        target = {i for i in range(len(p.states)) if rng.random() < 0.5}
        policies = [dict(enumerate(ks)) for ks in
                    itertools.product(*map(p.pairs, range(len(p.states))))]
        want = {i for i in range(len(p.states))
                if any(surely_reaches(p, c, i, target) for c in policies)}
        assert almost_sure_reach(p, target) == want
        checked += 0 < len(want) < len(p.states)
    assert checked >= 10
