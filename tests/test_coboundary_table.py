"""Cocycle equivalence by membership in B2, B2's coboundary table, and Z1.

Equivalence reads B2, listed once per datum by coboundary_group; the
coboundary table (B2Result.witnesses) holds the maps behind each image.
The references below are the direct forms the table replaced: a walk over
every fiber-respecting map per cocycle pair for the equivalence witness, and
a check of the 1-cocycle identity per map for Z1.  They must give the same
witness (the first in fiber_respecting_maps order), the same Z1 and the
same exceptions, also on the Z4/Z2 and Z8/Z4 datums with perturbed f-delta
and action entries, values off their fibers included.  Elsewhere an
off-fiber datum can part them; the case found is pinned at the end.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings

import affext.cocycles as cocycles
import affext.cohomology as cohomology
from affext.cocycles import _serialized_sub, coboundary_of, fiber_respecting_maps
from affext.cohomology import (_check_subgroup, _cochain_group, are_equivalent,
                               cocycle_group, derivations, h1, h2)
from affext.datum import DatumError, extract_datum
from affext.verify import catalog_extensions, datum_for_oracle_case, oracle_cases

from oracles import (cochain_of, cocycle_add, cocycle_difference_coboundary,
                     tables_of)
from test_weak_gate_oracle import datum, outcome, perturbed, with_entries


def reference_sub(d, T1, T2):
    """T1 - T2 through a negated cochain and cocycle_add, cell by cell."""
    neg = {sym: {qs: d.neg_at(d.q_alg.apply(sym, qs), v) for qs, v in tab.items()}
           for sym, tab in tables_of(d, T2).items()}
    return cocycle_add(d, T1, cochain_of(d, neg))


def reference_difference_coboundary(d, T, Tp):
    """A witness h with coboundary(h) = T' - T, or None."""
    target = reference_sub(d, Tp, T)
    for h in fiber_respecting_maps(d):
        if coboundary_of(d, h) == target:
            return h
    return None


def reference_derivations(d):
    """The sorted fiber-respecting maps satisfying the 1-cocycle identity,
    checked to be a subgroup under pointwise +_{l(x)}."""
    nq = d.qsize()
    out = []
    for h in fiber_respecting_maps(d):
        ok = True
        for sym, ar in d.signature.symbols:
            if not ok:
                break
            if ar == 0:
                q = d.q_alg.tables[sym][0]
                if h[q] != d.delta_l(q):
                    ok = False
                continue
            for qs in product(range(nq), repeat=ar):
                base = d.q_alg.apply(sym, qs)
                val = d.fdelta_apply(sym, h[qs[0]], qs[1:])
                for i in range(2, ar + 1):
                    val = d.plus_at(base, val,
                                    d.action_apply(sym, i, qs[:i - 1] + qs[i:],
                                                   h[qs[i - 1]]))
                if h[base] != val:
                    ok = False
                    break
        if ok:
            out.append(h)
    out.sort()
    if out:
        zero, add = _cochain_group(d, range(nq))
        _check_subgroup(out, zero, add, "Z1")
    return out


ORACLE_CASES = [case[:2] for case in oracle_cases()]


def _oracle_datum(cat, k_name, q_name):
    case = next(c for c in oracle_cases(cat) if c[:2] == (k_name, q_name))
    return datum_for_oracle_case(cat, k_name, q_name, case[3])[0]


@pytest.mark.parametrize("k_name, q_name", ORACLE_CASES)
def test_equivalence_witness_matches_reference(cat, group_eqs, k_name, q_name):
    d = _oracle_datum(cat, k_name, q_name)
    z2 = cocycle_group(d, group_eqs).serialized
    for T, Tp in product(z2, repeat=2):
        witness = cocycle_difference_coboundary(d, T, Tp)
        assert witness == reference_difference_coboundary(d, T, Tp)
        assert are_equivalent(d, T, Tp) == (witness is not None)


@pytest.mark.parametrize("name", [name for name, _ in catalog_extensions()])
def test_equivalence_matches_the_witness_table_on_catalog(cat, group_eqs, name):
    d = extract_datum(dict(catalog_extensions(cat))[name])[0]
    z2 = cocycle_group(d, group_eqs).serialized
    for T, Tp in product(z2, repeat=2):
        assert are_equivalent(d, T, Tp) == (
            cocycle_difference_coboundary(d, T, Tp) is not None)


@pytest.mark.parametrize("name", [name for name, _ in catalog_extensions()])
def test_cocycle_sub_matches_reference(cat, name):
    """Random 2-cochains with any class in any cell, off the fibers too."""
    d = extract_datum(dict(catalog_extensions(cat))[name])[0]
    rng = random.Random(name)
    for _ in range(30):
        T1, T2 = (tuple([rng.randrange(d.dc.size) for _ in d.cells()])
                  for _ in range(2))
        assert _serialized_sub(d, T1, T2) == reference_sub(d, T1, T2)


@pytest.mark.parametrize("name", [name for name, _ in catalog_extensions()])
def test_z1_matches_reference_on_catalog(cat, name):
    ext = dict(catalog_extensions(cat))[name]
    d = extract_datum(ext)[0]
    assert outcome(lambda: derivations(d)) == outcome(lambda: reference_derivations(d))


@settings(max_examples=200, deadline=None)
@given(perturbed())
def test_z1_matches_reference_on_perturbed_datums(case):
    d, _ = case
    assert outcome(lambda: derivations(d)) == outcome(lambda: reference_derivations(d))


def test_coboundary_map_enumerated_once(cat, group_eqs, monkeypatch):
    """On the Z2-by-Z2xZ2 datum, h2 and h1 compute delta(h) on the zero
    map and on one map per fiber generator (4 fibers Z2); are_equivalent
    on every pair of Z2 then reads the B2 kept on the datum and computes
    delta on no further map."""
    d = _oracle_datum(cat, "Z2", "Z2xZ2")
    calls = []

    def counted(d, h):
        calls.append(h)
        return coboundary_of(d, h)

    monkeypatch.setattr(cocycles, "coboundary_of", counted)
    monkeypatch.setattr(cohomology, "coboundary_of", counted)
    z2 = h2(d, group_eqs).z2.serialized
    h1(d)
    assert len(calls) == 1 + 4
    del calls[:]
    verdicts = {are_equivalent(d, T, Tp) for T, Tp in product(z2, repeat=2)}
    assert calls == [] and verdicts == {True, False}


def test_off_fiber_datum_is_reported():
    """Off their fibers the kernel of delta and the 1-cocycle identity part:
    on this perturbed S3-over-Z3 datum (two action values and one f-delta
    value moved) the identity holds for no map, while delta sends (0, 5) to
    zero.  The kernel then misses the zero map and is reported."""
    d = with_entries(datum("S3", (0, 3, 4)),
                     [(("action", ("mul", 2), (1, 0)), 2),
                      (("action", ("mul", 2), (0, 5)), 5),
                      (("fdelta", "mul", (5, 0)), 0)])
    assert reference_derivations(d) == []
    with pytest.raises(DatumError, match="Z1 does not contain zero"):
        derivations(d)
