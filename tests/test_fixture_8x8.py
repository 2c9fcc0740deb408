"""The shipped 8x8 showcase instance: a 64-state deterministic grid whose
corridor of labels admits a tour hitting the a,b,c,c pattern every lap, plus
a reference policy whose induced original chain is a unichain with exactly
two transient states."""

import pytest

from ssltl.graph import bscc_accepting, bsccs
from ssltl.hoa import load_hoa
from ssltl.model import load_model, load_spec
from ssltl.product import build_product, induce_chain, load_policy
from ssltl.verify import verify_policy


@pytest.fixture(scope="module")
def instance(fixtures_dir):
    model = load_model(fixtures_dir / "grid8x8" / "model.json")
    spec = load_spec(fixtures_dir / "grid8x8" / "spec.json")
    dra = load_hoa(spec.dra_source)
    policy = load_policy(fixtures_dir / "grid8x8" / "policy.json")
    return model, spec, dra, policy


def test_model_file_shape(instance):
    model, _, _, _ = instance
    assert len(model.states) == 64
    assert model.initial == "s0"
    assert model.ap == ("a", "b", "c", "d")
    for s in model.states:
        for a in model.enabled[s]:
            row = model.trans[(s, a)]
            assert len(row) == 1 and sum(row.values()) == 1.0


def test_reference_policy_unichain_two_transient(instance):
    model, _, dra, policy = instance
    product = build_product(model, dra)
    chain = induce_chain(product, policy)
    dec = bsccs(chain)
    assert len(dec.bsccs) == 1
    recurrent_cells = {product.states[i][0] for b in dec.bsccs for i in b}
    assert len(model.states) - len(recurrent_cells) == 2


def test_reference_policy_bscc_is_accepting(instance):
    model, _, dra, policy = instance
    product = build_product(model, dra)
    chain = induce_chain(product, policy)
    dec = bsccs(chain)
    for b in dec.bsccs:
        assert bscc_accepting(b, product)


def test_reference_policy_verdict_and_masses(instance):
    model, spec, dra, policy = instance
    report = verify_policy(model, dra, spec, policy)
    assert report.verdict and report.unichain
    for r in report.ss_results:
        assert r.mass >= 0.01 - 1e-6
