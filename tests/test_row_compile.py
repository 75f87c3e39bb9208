"""The (C2) compile that reads each E_t path's cells and wrap chains column
by column into Howell rows (cohomology._compile, _linear.System), against
the image-list compile and kernel it replaced (tests/oracles.py): the same
multiset of Howell rows per prime, the same Z2 and the same non-linear
instances, on every ladder and catalog datum and on perturbed datums.
delta's per-cell rows (_delta_kernel) go through the same System."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import affext._linear as linear
from affext.cohomology import _compile, _delta_kernel, cocycle_group
from affext.datum import check_action_compatible

from oracles import image_list_delta_kernel, image_list_z2
from test_linear_cohomology import DATUM_IDS, DATUMS, _datum
from test_sum_table import perturbed_with_cochain
from test_weak_gate_oracle import EQUATIONS, datum, outcome, with_entries


def multisets(rows):
    """Per prime with rows, the multiset of its rows."""
    return {p: Counter(frozenset(row.items()) for row in rs)
            for p, rs in rows.items() if rs}


def compiled(d, eqs):
    """(Z2, non-linear instances, Howell rows) as cocycle_group finds them."""
    if not check_action_compatible(d, eqs, mode="weak")["holds"]:
        return [], [], {}
    system, nonlinear = _compile(d, eqs)
    return cocycle_group(d, eqs).serialized, nonlinear, multisets(system.rows)


def by_image_lists(d, eqs):
    """image_list_z2, each image list read as {class: image} on its fiber,
    as _compile keeps it."""
    z2, nonlinear, rows = image_list_z2(d, eqs)
    nonlinear = [tuple((base, [(i, {v: y for v, y in enumerate(img) if y is not None})
                               for i, img in terms]) for base, terms in instance)
                 for instance in nonlinear]
    return z2, nonlinear, multisets(rows)


@pytest.mark.parametrize("kind, case", DATUMS, ids=DATUM_IDS)
def test_compile_matches_the_image_lists(group_eqs, abelian_eqs, kind, case):
    """Every instance is linear here; under the group equations the gate
    holds on each datum."""
    d = _datum(kind, case)
    for eqs in (group_eqs, abelian_eqs):
        found = compiled(d, eqs)
        assert found == by_image_lists(d, eqs)
        assert found[1] == [] and (eqs is abelian_eqs or found[0] and found[2])


@pytest.mark.parametrize("kind, case", DATUMS, ids=DATUM_IDS)
def test_delta_rows_match_the_image_lists(kind, case, monkeypatch):
    d = _datum(kind, case)
    seen, howell = {}, linear.howell

    def spy(rows, p, k):
        seen[p] = list(rows)
        return howell(rows, p, k)

    monkeypatch.setattr(linear, "howell", spy)
    order, _, nonlinear = _delta_kernel(d)
    old_order, _, old_nonlinear, old_rows = image_list_delta_kernel(d)
    assert (order, nonlinear) == (old_order, old_nonlinear)
    assert multisets(seen) == multisets(old_rows)


def test_a_non_linear_instance_is_filtered_the_same_way(group_eqs):
    """Z4 over Z2 with f-delta of the constant e moved to class 2: the cell
    of e then lies in the fiber over 1, while e^Q = 0, so the 8 instances
    that add it at base 0 read a map that is no homomorphism of fibers.
    The gate holds, and no member passes the filter."""
    d = with_entries(datum("Z4", (0, 2)), [(("fdelta", "e", ()), 2)])
    assert d.cell_fibers()[-1] == 1
    found = compiled(d, group_eqs)
    assert found == by_image_lists(d, group_eqs)
    assert len(found[1]) == 8 and found[0] == []


@st.composite
def perturbed_with_e_moved(draw):
    """test_sum_table's perturbed datums, in half the draws with f-delta of
    the constant e moved too: its cell then leaves the fiber over e^Q when
    the new class lies over another q, and instances turn non-linear."""
    d = draw(perturbed_with_cochain())[0]
    if draw(st.booleans()):
        moved = draw(st.integers(0, d.dc.size - 1))
        d = with_entries(d, [(("fdelta", "e", ()), moved)])
    return d


@settings(max_examples=150, deadline=None)
@given(perturbed_with_e_moved())
def test_compile_matches_the_image_lists_on_perturbed_datums(d):
    for eqs in EQUATIONS.values():
        assert (outcome(lambda: compiled(d, eqs))
                == outcome(lambda: by_image_lists(d, eqs)))
