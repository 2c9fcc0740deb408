import pytest

from helpers import to_hoa
from ssltl.errors import HoaError
from ssltl.hoa import dra_step, letters_of, load_hoa, parse_hoa

TRIVIAL = """HOA: v1
States: 1
Start: 0
AP: 0
acc-name: Rabin 1
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[t] 0
--END--
"""


def test_parse_trivial_accept_all():
    d = parse_hoa(TRIVIAL)
    assert d.nodes == ("q0",)
    assert d.initial == "q0"
    assert d.alphabet == ()
    assert d.pairs == ((frozenset(), frozenset({"q0"})),)
    assert dra_step(d, "q0", frozenset()) == "q0"
    assert dra_step(d, "q0", {"whatever"}) == "q0"


def test_parse_until_dra(automata_dir):
    d = load_hoa(automata_dir / "fa_U_b.hoa")
    assert len(d.nodes) == 4
    assert d.pairs == ((frozenset(), frozenset({"q2"})),)
    assert dra_step(d, "q0", {"b"}) == "q2"
    assert dra_step(d, "q0", {"a"}) == "q0"
    assert dra_step(d, "q0", set()) == "q1"
    assert dra_step(d, "q1", {"b"}) == "q3"
    assert dra_step(d, "q3", {"a"}) == "q2"
    assert dra_step(d, "q3", set()) == "q3"
    assert dra_step(d, "q2", {"a", "b"}) == "q2"


def test_delta_total_on_fixtures(automata_dir):
    for path in sorted(automata_dir.glob("*.hoa")):
        d = load_hoa(path)
        assert len(d.delta) == len(d.nodes) * 2 ** len(d.alphabet)
        for q in d.nodes:
            for letter in letters_of(d.alphabet):
                assert d.delta[(q, letter)] in d.nodes
        assert d.pairs


def test_nondeterministic_overlap_rejected():
    text = """HOA: v1
States: 1
Start: 0
AP: 1 "a"
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[0] 0
[t] 0
--END--
"""
    with pytest.raises(HoaError, match="non-deterministic"):
        parse_hoa(text)


def test_incomplete_coverage_rejected():
    text = """HOA: v1
States: 1
Start: 0
AP: 1 "a"
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[0] 0
--END--
"""
    with pytest.raises(HoaError, match="no edge"):
        parse_hoa(text)


def test_transition_based_acceptance_rejected():
    text = """HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0
[t] 0 {1}
--END--
"""
    with pytest.raises(HoaError, match="transition-based"):
        parse_hoa(text)


def test_repeated_state_header_rejected():
    """A second, bare ``State: 0`` would otherwise drop state 0's {1}."""
    with pytest.raises(HoaError, match="second State: header"):
        parse_hoa(TRIVIAL.replace("--END--", "State: 0\n--END--"))


def test_non_rabin_acceptance_rejected():
    text = """HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[t] 0
--END--
"""
    with pytest.raises(HoaError, match="acceptance"):
        parse_hoa(text)


def test_roundtrip_fixtures(automata_dir):
    for path in sorted(automata_dir.glob("*.hoa")):
        d = load_hoa(path)
        again = parse_hoa(to_hoa(d))
        assert again.nodes == d.nodes
        assert again.initial == d.initial
        assert again.alphabet == d.alphabet
        assert again.delta == d.delta
        assert again.pairs == d.pairs
