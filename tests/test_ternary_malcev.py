"""End-to-end checks on a non-group signature: Z4 carrying only the affine
Mal'cev operation.  Exercises arity-3 actions, ternary derived-operation
sets and the full cohomology pipeline away from the group catalog."""

import pytest

from affext.algebras import FiniteAlgebra, Signature, find_isomorphism
from affext.congruences import Congruence
from affext.cocycles import check_cocycle, reconstruct
from affext.cohomology import (coboundary_group, cocycle_group, derivations,
                               h1, h2, stabilizers, trivial_action_check)
from affext.datum import (ExtensionRecord, check_action_compatible,
                          extract_datum, validate_datum)
from affext.terms import parse_term

from oracles import brute_cocycle_group

MALCEV_EQS = [(parse_term("(m x0 x1 x1)"), parse_term("x0")),
              (parse_term("(m x1 x1 x0)"), parse_term("x0"))]


@pytest.fixture(scope="module")
def ternary_datum():
    sig = Signature([("m", 3)])
    m_flat = tuple((a - b + c) % 4
                   for a in range(4) for b in range(4) for c in range(4))
    alg = FiniteAlgebra(4, sig, {"m": m_flat}, name="M4")
    alpha = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    ext = ExtensionRecord.from_kernel(alg, alpha, parse_term("(m x0 x1 x2)"),
                                      name="M4/2")
    d, T = extract_datum(ext)
    return alg, ext, d, T


def test_extraction_validates(ternary_datum):
    _, _, d, T = ternary_datum
    report = validate_datum(d)
    assert all(r["holds"] for r in report), \
        [r for r in report if not r["holds"]]
    assert check_cocycle(d, T, MALCEV_EQS)["holds"]


def test_action_compatibility_both_modes(ternary_datum):
    _, _, d, _ = ternary_datum
    assert check_action_compatible(d, MALCEV_EQS, mode="weak")["holds"]
    full = check_action_compatible(d, MALCEV_EQS, mode="full")
    assert full["holds"]
    assert full["excluded_sequences"] > 0  # mixed patterns are excluded


def test_round_trip(ternary_datum):
    alg, _, d, T = ternary_datum
    rec = reconstruct(d, T)
    assert find_isomorphism(alg, rec.alg) is not None


def test_cohomology_consistency(ternary_datum):
    _, ext, d, _ = ternary_datum
    z2 = cocycle_group(d, MALCEV_EQS)
    assert z2.serialized == brute_cocycle_group(d, MALCEV_EQS).serialized
    b2 = coboundary_group(d)
    res = h2(d, MALCEV_EQS)
    assert z2.order == b2.order * res.order
    assert z2.order == 4 and b2.order == 1
    assert res.invariant_factors == [2, 2]
    ders = derivations(d)
    stabs = stabilizers(ext)
    assert len(ders) == len(stabs) == 4
    assert trivial_action_check(d)
    r1 = h1(d)
    assert r1["exact"] and r1["order"] == 4  # trivial action: H1 ~= Z1
