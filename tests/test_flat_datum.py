"""The datum on flat integer tables against the entry-by-entry forms.

extract_datum fills f-delta and the actions from whole rows and columns of
the operation tables, and DeltaClasses fills its class-level m table a row
of z at a time.  tests/oracles.entrywise_datum_tables sweeps every entry
over every representative as extraction once did, and triplewise_m_table
fills m one triple at a time; they must give the same tables.  Also: the
slices the compile and the weak gate read (AffineDatum.wrap) against maps
built entry by entry, the checks of 2-cochain values at the library entry
points, and a property test of extraction and reconstruction on random
extensions K x_{phi,f} Q.
"""

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from affext.algebras import find_isomorphism
from affext.cocycles import (check_cocycle, coboundary_of, fiber_respecting_maps,
                             reconstruct)
from affext.cohomology import are_equivalent, h2
from affext.congruences import Congruence
from affext.datum import (DatumError, ExtensionRecord, extract_datum,
                          group_extension)
from affext.groups import (catalog, classical_h2, inversion_action, is_action,
                           semidirect_extension, trivial_action)
from affext.serialization import builtin_equations
from affext.verify import catalog_extensions

from oracles import (bar_complex_orders, entrywise_coboundary,
                     entrywise_datum_tables, entrywise_wrap, triplewise_m_table)
from test_linear_cohomology import GROUPS, LADDER
from test_weak_gate_oracle import datum, outcome, perturbed, with_entries

CAT = catalog()
EXTENSIONS = [(name, ext) for name, ext in catalog_extensions()] + [
    ("%s/%d" % (g, len(k)), group_extension(GROUPS[g], list(k))) for g, k in LADDER]


@pytest.mark.parametrize("name, ext", EXTENSIONS, ids=[n for n, _ in EXTENSIONS])
def test_tables_match_the_entrywise_sweep(name, ext):
    d, _ = extract_datum(ext)
    assert (d.fdelta, d.actions) == entrywise_datum_tables(ext, d)
    assert d.dc.m_table() == triplewise_m_table(d.dc)
    for sym, ar in d.signature.symbols:
        for k in range(1, ar + 1):
            for qs in product(range(d.qsize()), repeat=ar):
                assert list(d.wrap(sym, k, qs)) == entrywise_wrap(d, sym, k, qs)
    for h in fiber_respecting_maps(d):
        assert coboundary_of(d, h) == entrywise_coboundary(d, h)


@settings(max_examples=100, deadline=None)
@given(perturbed())
def test_coboundaries_match_the_entrywise_sums_on_perturbed_datums(case):
    """f-delta and action values moved, off their fibers too: the same
    coboundary of every fiber-respecting map."""
    d = case[0]
    for h in fiber_respecting_maps(d):
        assert outcome(lambda: coboundary_of(d, h)) == outcome(
            lambda: entrywise_coboundary(d, h))


def test_m_table_keeps_none_off_the_alpha_pairs(cat):
    """m is x - y + z inside the kernel blocks of Z4 over {0,2},{1,3} and
    not beta-compatible across them: the triples whose results are no
    alpha-pair stay None, and m_class raises KeyError exactly there."""
    def m(x, y, z):
        if x % 2 == y % 2 == z % 2:
            return (x - y + z) % 4
        return x if x < 2 else (x + 1) % 4
    beta = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    table = tuple(m(*t) for t in product(range(4), repeat=3))
    d, _ = extract_datum(ExtensionRecord.from_kernel(cat["Z4"], beta, table))
    expected = triplewise_m_table(d.dc)
    assert d.dc.m_table() == expected and None in expected
    for i, t in enumerate(product(range(d.dc.size), repeat=3)):
        if expected[i] is None:
            with pytest.raises(KeyError):
                d.dc.m_class(*t)
        else:
            assert d.dc.m_class(*t) == expected[i]
    for h in fiber_respecting_maps(d):
        assert outcome(lambda: coboundary_of(d, h)) == outcome(
            lambda: entrywise_coboundary(d, h))


def test_a_missing_entry_raises_key_error_where_it_is_read():
    d = with_entries(datum("Z4", (0, 2)), [(("fdelta", "mul", (1, 0)), None),
                                            (("action", ("mul", 2), (1, 3)), None)])
    with pytest.raises(KeyError):
        d.fdelta_apply("mul", 1, (0,))
    with pytest.raises(KeyError):
        d.wrap("mul", 1, (1, 0))
    with pytest.raises(KeyError):
        d.action_apply("mul", 2, (1,), 3)
    with pytest.raises(KeyError):
        d.wrap("mul", 2, (1, 0))
    assert d.fdelta_apply("mul", 1, (1,)) == datum("Z4", (0, 2)).fdelta_apply("mul", 1, (1,))


def test_coboundary_of_raises_key_error_only_at_a_missing_entry():
    """A None entry that a map reads is a KeyError; an h whose values are
    no class indices raises its own error, not that KeyError."""
    d = with_entries(datum("Z4", (0, 2)), [(("fdelta", "mul", (1, 0)), None)])
    reads = [h for h in fiber_respecting_maps(d) if 1 in h]
    assert reads
    for h in reads:
        with pytest.raises(KeyError):
            coboundary_of(d, h)
    with pytest.raises(TypeError):
        coboundary_of(datum("Z4", (0, 2)), ("x",) * d.qsize())


def test_the_sum_table_stops_at_the_first_entry_that_reads_a_missing_one():
    """The action of mul at position 2 with Q value 1 at position 1 and
    class 3 is missing: the first sum to read it is at (c1, 3), c1 the
    least class over 1, so the tables of mul stop just before it."""
    d = datum("Z4", (0, 2))
    broken = with_entries(d, [(("action", ("mul", 2), (1, 3)), None)])
    sums = broken.sum_table()
    end = d.fiber(1)[0] * d.dc.size + 3
    assert sums.failure[0] == "mul" and isinstance(sums.failure[1], KeyError)
    assert sums.offsets["mul"] == d.sum_table().offsets["mul"][:end]
    assert sums.cells["mul"] == d.sum_table().cells["mul"][:end]
    assert sums.algebra is None


# --- 2-cochain values checked at the library entry points ---------------------

BAD_VALUES = [999, -1, True, None, "x"]


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
def test_cochain_values_are_classes(z4_datum, group_eqs, value):
    """Each entry point refuses a value that is no class index, as
    cocycle_from_json does for a file, before reading any table."""
    d, T = z4_datum
    bad = T[:1] + (value,) + T[2:]
    calls = [lambda: reconstruct(d, bad), lambda: reconstruct(d, bad, verify=False),
             lambda: check_cocycle(d, bad, group_eqs),
             lambda: are_equivalent(d, bad, T), lambda: are_equivalent(d, T, bad)]
    for call in calls:
        with pytest.raises(DatumError, match=r"^2-cochain value .* is not a class in 0\.\.3$"):
            call()
    assert are_equivalent(d, T, T) and check_cocycle(d, T, group_eqs)["holds"]


# --- property test: K x_{phi,f} Q -> datum -> reconstruction -------------------

def _modules():
    """(Q name, K name, "trivial" or "inversion") with Q a catalog group of
    order <= 4, K in {Z2, Z3, Z4, Z2xZ2}, the inversion action only where it
    is an action other than the trivial one, and |K|^(|Q|^2) within
    classical_h2's cap."""
    out = []
    for q_name in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2"):
        for k_name in ("Z2", "Z3", "Z4", "Z2xZ2"):
            q_alg, k_alg = CAT[q_name], CAT[k_name]
            if k_alg.size ** (q_alg.size ** 2) > 1 << 22:
                continue
            for how, action in (("trivial", trivial_action),
                                ("inversion", inversion_action)):
                phi = action(k_alg, q_alg)
                if is_action(k_alg, q_alg, phi) and (
                        how == "trivial" or phi != trivial_action(k_alg, q_alg)):
                    out.append((q_name, k_name, how))
    return out


MODULES = _modules()


@lru_cache(maxsize=None)
def _classical(q_name, k_name, how):
    q_alg, k_alg = CAT[q_name], CAT[k_name]
    phi = (trivial_action if how == "trivial" else inversion_action)(k_alg, q_alg)
    return q_alg, k_alg, phi, classical_h2(k_alg, q_alg, phi, cat=CAT)


@st.composite
def extensions(draw):
    """K x_{phi,f} Q with f a class representative of classical H2 plus a
    coboundary, both drawn."""
    q_alg, k_alg, phi, res = _classical(*draw(st.sampled_from(MODULES)))
    rep = draw(st.sampled_from([f for f, _, _ in res.classes]))
    cob = draw(st.sampled_from(res.coboundaries))
    kmul, nk = k_alg.tables["mul"], k_alg.size
    f = tuple(tuple(kmul[a * nk + b] for a, b in zip(r, c)) for r, c in zip(rep, cob))
    return q_alg, k_alg, phi, semidirect_extension(k_alg, q_alg, phi, f)


def _constant_namer(alg, previous):
    return "class"


@settings(max_examples=60, deadline=None)
@given(extensions())
def test_extract_and_reconstruct_random_extensions(case):
    q_alg, k_alg, phi, g = case
    kernel = [a * q_alg.size + q_alg.tables["e"][0] for a in range(k_alg.size)]
    ext = group_extension(g, kernel)
    d, T = extract_datum(ext)
    assert (d.fdelta, d.actions) == entrywise_datum_tables(ext, d)
    assert d.dc.m_table() == triplewise_m_table(d.dc)
    assert find_isomorphism(g, reconstruct(d, T).alg) is not None
    if k_alg.name != "Z4":  # elementary abelian
        res = h2(d, builtin_equations("groups"), namer=_constant_namer)
        assert res.order == bar_complex_orders(q_alg, k_alg, phi)[2]
