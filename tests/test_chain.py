import numpy as np
import pytest

from helpers import (
    Lmc,
    Partition,
    check_lumpable,
    lump_distribution,
    mirrored_bscc_fixture,
    power_iteration_limit,
    product_chain,
    product_state_partition,
    random_dra,
    random_irreducible_lmc,
    random_multichain,
)
from ssltl.chain import limiting_distribution, stationary
from ssltl.graph import bsccs


def chain(states, rows, initial=None):
    return Lmc(states=tuple(states), rows=rows, initial=initial or states[0])


# ---------------------------------------------------------------------------
# stationary
# ---------------------------------------------------------------------------

def test_stationary_single_absorbing():
    c = chain(["s"], {"s": {"s": 1.0}})
    assert stationary(c) == {"s": 1.0}


def test_stationary_two_state_derived():
    c = chain(["s0", "s1"], {"s0": {"s0": 0.5, "s1": 0.5}, "s1": {"s0": 1.0}})
    got = stationary(c)
    oracle = power_iteration_limit(c, burn_in=4000, window=400)
    assert got["s0"] == pytest.approx(2 / 3, abs=1e-12)
    assert got["s1"] == pytest.approx(1 / 3, abs=1e-12)
    for s in c.states:
        assert got[s] == pytest.approx(oracle[s], abs=1e-12)


def test_stationary_periodic_two_cycle():
    c = chain(["s0", "s1"], {"s0": {"s1": 1.0}, "s1": {"s0": 1.0}})
    got = stationary(c)
    assert got == {"s0": pytest.approx(0.5), "s1": pytest.approx(0.5)}


# ---------------------------------------------------------------------------
# limiting_distribution
# ---------------------------------------------------------------------------

def test_limiting_unichain_equals_stationary_with_zeros():
    c = chain(["t", "a", "b"],
              {"t": {"a": 1.0}, "a": {"b": 0.5, "a": 0.5}, "b": {"a": 1.0}})
    got = limiting_distribution(c, bsccs(c))
    assert got["t"] == 0.0
    assert got["a"] == pytest.approx(2 / 3, abs=1e-12)
    assert got["b"] == pytest.approx(1 / 3, abs=1e-12)


def test_limiting_mirrored_fixture_masses():
    product, _ = mirrored_bscc_fixture()
    got = limiting_distribution(product, bsccs(product))
    assert got[("s0", "q0")] == 0.0
    for q in ("q0", "q1", "q2", "q3"):
        assert got[("s1", q)] == pytest.approx(1 / 6, abs=1e-12)
        assert got[("s2", q)] == pytest.approx(1 / 12, abs=1e-12)


def test_limiting_matches_power_iteration_on_random_multichains():
    rng = np.random.default_rng(31)
    for _ in range(20):
        c = random_multichain(rng)
        got = limiting_distribution(c, bsccs(c))
        oracle = power_iteration_limit(c, burn_in=5000, window=500)
        for s in c.states:
            assert got[s] == pytest.approx(oracle[s], abs=1e-6)


def test_limiting_is_stationary_vector_of_full_chain():
    rng = np.random.default_rng(32)
    for _ in range(10):
        c = random_multichain(rng)
        d = limiting_distribution(c, bsccs(c))
        for s2 in c.states:
            back = sum(d[s] * c.rows[s].get(s2, 0.0) for s in c.states)
            assert back == pytest.approx(d[s2], abs=1e-10)


# ---------------------------------------------------------------------------
# lumpability
# ---------------------------------------------------------------------------

def test_identity_partition_residual_zero():
    rng = np.random.default_rng(8)
    c = random_irreducible_lmc(rng, 5)
    p = Partition.from_assignment({s: s for s in c.states})
    assert check_lumpable(c, p) == 0.0


def test_single_class_two_state_partition_is_trivially_lumpable():
    # With one class, T V is the vector of row sums, which is identically 1,
    # so the defining residual is exactly 0 for every chain.
    c = chain(["s0", "s1"], {"s0": {"s0": 0.9, "s1": 0.1},
                             "s1": {"s0": 0.5, "s1": 0.5}})
    p = Partition.from_assignment({"s0": "c", "s1": "c"})
    assert check_lumpable(c, p) == pytest.approx(0.0, abs=1e-15)


def test_non_lumpable_partition_residual_is_0_4():
    # Class masses differ by 0.4 between the two members of class c1.
    c = chain(["s0", "s1", "s2"],
              {"s0": {"s0": 0.9, "s1": 0.1},
               "s1": {"s0": 0.3, "s1": 0.3, "s2": 0.4},
               "s2": {"s2": 1.0}})
    p = Partition.from_assignment({"s0": "c1", "s1": "c1", "s2": "c2"})
    assert check_lumpable(c, p) == pytest.approx(0.4, abs=1e-15)


def test_product_bscc_classes_are_lumpable():
    rng = np.random.default_rng(9)
    for _ in range(30):
        c = random_irreducible_lmc(rng, int(rng.integers(3, 9)))
        d = random_dra(rng, int(rng.integers(2, 6)))
        pc = product_chain(c, d)
        dec = bsccs(pc)
        for b in dec.bsccs:
            sub_states = tuple(s for s in pc.states if s in b)
            sub = Lmc(states=sub_states,
                      rows={s: pc.rows[s] for s in sub_states},
                      initial=sub_states[0])
            part = product_state_partition(sub_states)
            assert check_lumpable(sub, part) <= 1e-12


# ---------------------------------------------------------------------------
# lump_distribution
# ---------------------------------------------------------------------------

def test_lump_singleton_classes_identity():
    d = {"a": 0.2, "b": 0.8}
    p = Partition.from_assignment({"a": "a", "b": "b"})
    assert lump_distribution(d, p) == d


def test_lump_mirrored_fixture_classes():
    product, original = mirrored_bscc_fixture()
    dist = limiting_distribution(product, bsccs(product))
    lumped = lump_distribution(dist, product_state_partition(product.states))
    assert lumped["s0"] == pytest.approx(0.0, abs=1e-12)
    assert lumped["s1"] == pytest.approx(2 / 3, abs=1e-12)
    assert lumped["s2"] == pytest.approx(1 / 3, abs=1e-12)
    # class-level families agree with the aggregate chain's own limiting law
    agg = limiting_distribution(original, bsccs(original))
    for s in original.states:
        assert lumped[s] == pytest.approx(agg[s], abs=1e-9)


def test_lump_uniform_two_classes():
    d = {f"s{i}": 0.25 for i in range(4)}
    p = Partition.from_assignment({"s0": "l", "s1": "l", "s2": "r", "s3": "r"})
    assert lump_distribution(d, p) == {"l": pytest.approx(0.5),
                                       "r": pytest.approx(0.5)}
