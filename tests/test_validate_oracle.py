"""validate_datum against oracles.entrywise_validate_datum, the entry-by-entry
checks it replaced: the same claims, holds, witnesses and `check raised:`
texts on every catalog and ladder datum, on the broken datums of
test_datum, and on datums with a few f-delta or action entries changed or
two entries of m swapped.  A nullary f-delta off its fiber fails the (D4)
fiber claim in both."""

import copy
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import affext.commutator
import affext.congruences
import affext.datum
from affext.congruences import Congruence
from affext.datum import ExtensionRecord, extract_datum, group_extension, validate_datum
from affext.groups import catalog, center

from oracles import entrywise_validate_datum
from test_linear_cohomology import DATUM_IDS, DATUMS, _datum
from test_weak_gate_oracle import _entries, with_entries

NULLARY_CLAIM = "(D4) f-delta and action values lie over f^Q"


@lru_cache(maxsize=None)
def datum(kind, case):
    return _datum(kind, case)


def with_m_swapped(d, i, j):
    """A copy of d with entries i and j of the flat m table swapped."""
    m_flat = list(d.m_flat)
    m_flat[i], m_flat[j] = m_flat[j], m_flat[i]
    broken = copy.copy(d)
    broken.dc = copy.copy(d.dc)
    broken.m_flat = broken.dc.m_flat = tuple(m_flat)
    broken.dc._m = None  # m_table() of the swapped m
    return broken


def broken_datums():
    """The broken datums of test_datum: f-delta constant on a fiber, rho
    not surjective, an m that leaves its blocks and one that is not
    beta-compatible."""
    z4 = extract_datum(group_extension(catalog()["Z4"], [0, 2]))[0]
    const = z4.fdelta_apply("mul", 0, (0,))
    yield with_entries(z4, [(("fdelta", "mul", (c, 0)), const) for c in z4.fiber(0)])
    rho0 = copy.copy(z4)
    rho0.dc = copy.copy(z4.dc)
    rho0.dc.rho_class = [0] * z4.dc.size
    yield rho0
    yield with_m_swapped(z4, 0, (1 * 4 + 1) * 4 + 1)

    def m(x, y, z):
        if x % 2 == y % 2 == z % 2:
            return (x - y + z) % 4
        return x if x < 2 else (x + 1) % 4
    table = tuple(m(*t) for t in product(range(4), repeat=3))
    beta = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    yield extract_datum(ExtensionRecord.from_kernel(catalog()["Z4"], beta, table))[0]


@pytest.mark.parametrize("kind, case", DATUMS, ids=DATUM_IDS)
def test_validate_matches_the_entrywise_checks(kind, case):
    d = datum(kind, case)
    report = validate_datum(d)
    assert report == entrywise_validate_datum(d)
    assert all(r["holds"] for r in report)


def test_broken_datums_keep_their_reports():
    reports = [validate_datum(d) for d in broken_datums()]
    assert reports == [entrywise_validate_datum(d) for d in broken_datums()]
    assert all(not all(r["holds"] for r in report) for report in reports)


@pytest.mark.parametrize("changes", [
    [(("fdelta", "mul", (1, 0)), None), (("action", ("mul", 1), (0, 1)), None)],
    [(("fdelta", "mul", (1, 1)), None), (("fdelta", "mul", (3, 1)), None)],
    [(("action", ("mul", 2), (1, 1)), None), (("action", ("mul", 2), (1, 3)), 0)]])
def test_missing_entries_raise_in_entrywise_order(changes):
    """Two broken entries in one check: the report names the one an
    entry-by-entry check meets first."""
    d = with_entries(datum("catalog", "Z4/Z2"), changes)
    assert validate_datum(d) == entrywise_validate_datum(d)
    assert any(str(r["witness"]).startswith("check raised") for r in validate_datum(d))


def test_a_nullary_fdelta_off_its_fiber_fails():
    """D4 over its centre with e-delta moved to a class over q = 1, while
    e^Q = 0: only the (D4) fiber claim fails, with the nullary witness."""
    g = catalog()["D4"]
    d = extract_datum(group_extension(g, center(g)))[0]
    assert d.dc.rho_class[2] == 1 != d.q_alg.tables["e"][0]
    broken = with_entries(d, [(("fdelta", "e", ()), 2)])
    report = validate_datum(broken)
    assert report == entrywise_validate_datum(broken)
    assert [(r["claim"], r["witness"]) for r in report if not r["holds"]] == [
        (NULLARY_CLAIM, ("e", (), "fdelta"))]


def test_extraction_closes_m_beta_beta_once(monkeypatch):
    """On a group extension is_abelian's tc route and Delta share one
    M(beta,beta)."""
    calls, real = [], affext.congruences.m_matrices
    for module in (affext.congruences, affext.commutator, affext.datum):
        monkeypatch.setattr(module, "m_matrices",
                            lambda *a, **k: calls.append(a[1:3]) or real(*a, **k))
    g = catalog()["D4"]
    extract_datum(group_extension(g, center(g)))
    assert len(calls) == 1


SEEDS = [("catalog", name) for name in ("Z4/Z2", "S3/Z3", "D4/center", "Z2xZ4/K2")] + [
    ("ladder", ("Z10", (0, 5))), ("ladder", ("D4", (0, 1, 4, 5)))]
# an m that is not Mal'cev on the blocks sends "alpha is abelian in <A,m>"
# to tc_commutator on <A,m>, seconds per datum from order 6 on; swaps stay
# on the order-4 datums
SWAP_SEEDS = [("catalog", "Z4/Z2"), ("catalog", "Z2xZ2/Z2")]


@st.composite
def one_change(draw):
    """An extracted datum with one to three f-delta or action entries set to
    another class or to None (two missing entries order the KeyErrors), or
    with two entries of m swapped."""
    if draw(st.booleans()):
        d = datum(*draw(st.sampled_from(SWAP_SEEDS)))
        n3 = len(d.m_flat)
        return with_m_swapped(d, draw(st.integers(0, n3 - 1)), draw(st.integers(0, n3 - 1)))
    d = datum(*draw(st.sampled_from(SEEDS)))
    return with_entries(d, draw(st.lists(st.tuples(
        st.sampled_from(_entries(d)), st.none() | st.integers(0, d.dc.size - 1)),
        min_size=1, max_size=3)))


@settings(max_examples=150, deadline=None)
@given(one_change())
def test_changed_datums_match_the_entrywise_checks(d):
    assert validate_datum(d) == entrywise_validate_datum(d)
