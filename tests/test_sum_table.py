"""The datum's sum table (datum.SumTable), read by the weak gate and by
reconstruct, against the forms it replaced: reconstruct summed entry by
entry (tests/oracles.entrywise_reconstruct) and the weak gate with Q
tracked through the subterms.  Also the caps that is_semidirect and
fiber_respecting_maps check before they enumerate."""

import pytest
from hypothesis import given, settings, strategies as st

import affext.cocycles as cocycles
import affext.datum as datum_module
import oracles
from affext import cli
from affext.algebras import DEFAULT_CAP, CapExceeded
from affext.cocycles import fiber_respecting_maps, is_semidirect, reconstruct
from affext.cohomology import cocycle_group
from affext.congruences import Congruence
from affext.datum import check_action_compatible, extract_datum, group_extension
from affext.groups import catalog, cyclic
from affext.serialization import algebra_to_json, congruence_to_json, dump_json
from affext.verify import catalog_extensions

from oracles import entrywise_reconstruct
from test_weak_gate_oracle import (EQUATIONS, _entries, datum, off_fiber_z4,
                                   outcome, with_entries)

# the h2-wide rungs, then the datum-deep ones (kernels of order 4)
CAT = catalog()
LADDER = [(CAT["Z2xZ2xZ2"], (0, 1)), (cyclic(10), (0, 5)), (cyclic(12), (0, 6)),
          (cyclic(12), (0, 4, 8)), (cyclic(14), (0, 7)), (CAT["Z8"], (0, 2, 4, 6)),
          (CAT["D4"], (0, 2, 4, 6)), (CAT["Q8"], (0, 2, 4, 6))]
LADDER_IDS = ["Z2xZ2xZ2/Z2", "Z10/Z2", "Z12/Z2", "Z12/Z3", "Z14/Z2", "Z8/Z4",
              "D4/rotations", "Q8/Z4"]


def summary(ext):
    """Everything reconstruct returns that a caller reads."""
    return (ext.alg.size, ext.alg.tables, ext.alg.name, ext.pi, ext.m_flat,
            ext.lifting)


@pytest.mark.parametrize("name", [name for name, _ in catalog_extensions()])
def test_reconstruct_matches_entrywise_on_catalog_extensions(group_eqs, name):
    """The extracted cocycle and every member of Z2 rebuild the same
    extension both ways."""
    d, T = extract_datum(dict(catalog_extensions())[name])
    assert summary(reconstruct(d, T)) == summary(entrywise_reconstruct(d, T))
    for T in cocycle_group(d, group_eqs).serialized:
        assert (summary(reconstruct(d, T, name="x"))
                == summary(entrywise_reconstruct(d, T, name="x")))


@pytest.mark.parametrize("group, kernel", LADDER, ids=LADDER_IDS)
def test_reconstruct_matches_entrywise_over_all_of_z2(group_eqs, group, kernel):
    d = extract_datum(group_extension(group, list(kernel)))[0]
    z2 = cocycle_group(d, group_eqs).serialized
    assert z2
    for T in z2:
        assert summary(reconstruct(d, T)) == summary(entrywise_reconstruct(d, T))


@st.composite
def perturbed_with_cochain(draw):
    """A datum with up to three f-delta / action entries moved, and a
    cochain whose values lie in their cells' fibers, or some anywhere."""
    group, kernel = draw(st.sampled_from([("Z4", (0, 2)), ("Z8", (0, 2, 4, 6)),
                                          ("S3", (0, 3, 4))]))
    d = datum(group, kernel)
    changes = draw(st.lists(st.tuples(st.sampled_from(_entries(d)),
                                      st.integers(0, d.dc.size - 1)),
                            max_size=3))
    d = with_entries(d, changes)
    anywhere = st.integers(0, d.dc.size - 1) if draw(st.booleans()) else st.nothing()
    values = [draw(st.sampled_from(d.fiber(d.cell_fiber(*cell))) | anywhere)
              for cell in d.cells()]
    return d, tuple(values)


def _record(alg, pi, q_alg, m_flat, lifting, name, datum):
    """What reconstruct hands to ExtensionRecord, which rejects a pi that
    is no homomorphism, as it is on most perturbed datums."""
    return alg.tables, alg.name, tuple(pi), m_flat, lifting, name


@settings(max_examples=200, deadline=None)
@given(perturbed_with_cochain())
def test_reconstruct_matches_entrywise_on_perturbed_datums(case):
    """Same tables, or an exception of the same type, with and without
    ExtensionRecord's own check."""
    d, T = case
    assert (outcome(lambda: summary(reconstruct(d, T)))
            == outcome(lambda: summary(entrywise_reconstruct(d, T))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycles, "ExtensionRecord", _record)
        mp.setattr(oracles, "ExtensionRecord", _record)
        assert (outcome(lambda: reconstruct(d, T))
                == outcome(lambda: entrywise_reconstruct(d, T)))


def test_a_sum_that_raises_is_raised_at_its_entry():
    """A missing action entry stops the sum table there: the datum is not
    fibered, and reconstruct raises what the entry-by-entry loop raises."""
    broken = with_entries(datum("Z4", (0, 2)), [(("action", ("mul", 2), (0, 0)), None)])
    sums = broken.sum_table()
    assert sums.failure is not None and sums.algebra is None
    T = broken.trivial_cocycle()
    assert outcome(lambda: reconstruct(broken, T)) == outcome(
        lambda: entrywise_reconstruct(broken, T)) == ("raised", KeyError)


def _routes(monkeypatch):
    calls = []
    for name in ("_weak_failures", "_table_failures"):
        real = getattr(datum_module, name)
        monkeypatch.setattr(datum_module, name,
                            lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    return calls


def test_extracted_datums_take_the_term_table_route(monkeypatch):
    calls = _routes(monkeypatch)
    datums = [extract_datum(ext)[0] for _, ext in catalog_extensions()]
    datums += [extract_datum(group_extension(g, list(k)))[0] for g, k in LADDER]
    for d in datums:
        assert d.sum_table().algebra is not None, d.name
        for eqs in EQUATIONS.values():
            check_action_compatible(d, eqs, mode="weak")
    assert calls and set(calls) == {"_table_failures"}


def test_off_fiber_datum_takes_the_q_tracked_route(monkeypatch):
    calls = _routes(monkeypatch)
    d = off_fiber_z4()
    assert d.sum_table().failure is None and d.sum_table().algebra is None
    assert not check_action_compatible(d, EQUATIONS["groups"], mode="weak")["holds"]
    assert calls and set(calls) == {"_weak_failures"}


def test_full_mode_reads_no_sum_table(z4_datum):
    d = with_entries(z4_datum[0], [])
    check_action_compatible(d, EQUATIONS["groups"], mode="full")
    assert d._sums is None


# --- caps checked before an enumeration ---------------------------------------

Z64 = cyclic(64)
Z64_KERNEL = Congruence.from_blocks(64, [[x, x + 32] for x in range(32)])


def cap_failure(call):
    with pytest.raises(CapExceeded) as info:
        call()
    return info.value.stage, info.value.size, info.value.cap, str(info.value)


def test_is_semidirect_checks_its_cap_before_trying_a_retraction():
    ext = group_extension(Z64, [0, 32])
    assert cap_failure(lambda: is_semidirect(ext)) == (
        "is_semidirect", 2 ** 32, DEFAULT_CAP,
        "is_semidirect: 4294967296 candidate retractions exceed cap %d" % DEFAULT_CAP)
    assert is_semidirect(group_extension(cyclic(32), [0, 16])) is None


def test_fiber_respecting_maps_checks_its_cap_before_listing():
    d = extract_datum(group_extension(Z64, [0, 32]))[0]
    assert cap_failure(lambda: fiber_respecting_maps(d)) == (
        "fiber_respecting_maps", 2 ** 32, DEFAULT_CAP,
        "fiber_respecting_maps: 4294967296 fiber-respecting maps exceed cap %d"
        % DEFAULT_CAP)
    small = datum("Z8", (0, 2, 4, 6))
    assert len(fiber_respecting_maps(small)) == 4 ** 2


def test_cli_semidirect_exits_3_over_the_cap(tmp_path, capsys):
    dump_json(algebra_to_json(Z64), tmp_path / "z64.json")
    dump_json(congruence_to_json(Z64_KERNEL, Z64.name), tmp_path / "z2.json")
    code = cli.main(["semidirect", "--alg", str(tmp_path / "z64.json"),
                     "--con", str(tmp_path / "z2.json")])
    assert code == 3
    assert capsys.readouterr().err == (
        "cap exceeded: is_semidirect: 4294967296 candidate retractions exceed "
        "cap %d\n" % DEFAULT_CAP)
