"""The weak compatibility gate and the Z2 search against slow references.

check_action_compatible(mode="weak") evaluates a whole product of fibers
per Q assignment, and cocycle_group's search adds compiled path images
through a memo.  The references below are the direct forms: one weak_sum
per class assignment and side, and a backtracking search over d.cells()
that checks each (C2) instance with partial_derivative.  Datums with
perturbed f-delta and action entries (values off their fibers included)
must give the same reports, the same Z2 and the same exceptions.
"""

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from affext.algebras import satisfies
from affext.cocycles import e_paths, partial_derivative
from affext.cohomology import _check_subgroup, _two_cochains, cocycle_group
from affext.datum import (AffineDatum, DatumError, check_action_compatible,
                          extract_datum, group_extension)
from affext.groups import catalog
from affext.serialization import builtin_equations
from affext.terms import parse_term, term_vars

from oracles import weak_sum

FAILING = [(parse_term("(mul x0 (inv x1))"), parse_term("(mul x1 x0)"))]
EQUATIONS = {"groups": builtin_equations("groups"),
             "abelian-groups": builtin_equations("abelian-groups"),
             "failing": FAILING}
DATUMS = [("Z4", [0, 2]), ("Z2xZ2", [0, 1]), ("Z6", [0, 3]), ("Z6", [0, 2, 4]),
          ("S3", [0, 3, 4]), ("Z8", [0, 2, 4, 6]), ("D4", [0, 2, 4, 6]),
          ("Q8", [0, 2, 4, 6])]


def _varnames(lhs, rhs):
    names = term_vars(lhs)
    return names + [v for v in term_vars(rhs) if v not in names]


def reference_weak_report(d, equations):
    """The weak-mode report from one weak_sum per class assignment."""
    q_fail = satisfies(d.q_alg, equations)
    if q_fail is not None:
        return {"claim": "action weak-compatible", "holds": False,
                "witness": {"reason": "Q does not satisfy the equations",
                            "equation": q_fail[:2], "env": q_fail[2]}}
    failures = []
    for lhs, rhs in equations:
        varnames = _varnames(lhs, rhs)
        for vals in product(range(d.dc.size), repeat=len(varnames)):
            env = dict(zip(varnames, vals))
            lv = weak_sum(d, lhs, env)
            rv = weak_sum(d, rhs, env)
            if lv != rv:
                failures.append({"equation": (lhs, rhs), "env": env,
                                 "lhs": lv, "rhs": rv})
    return {"claim": "action weak-compatible", "holds": not failures,
            "witness": failures or None}


def reference_z2(d, equations):
    """Compatible 2-cocycles by backtracking over d.cells() in order; each
    (C2) instance is checked with partial_derivative once its last cell is
    set.  The gate and the subgroup checks are cocycle_group's."""
    if not reference_weak_report(d, equations)["holds"]:
        return []
    cells = d.cells()
    index = {cell: i for i, cell in enumerate(cells)}
    checks = [[] for _ in cells]
    for lhs, rhs in equations:
        varnames = _varnames(lhs, rhs)
        for vals in product(range(d.qsize()), repeat=len(varnames)):
            qenv = dict(zip(varnames, vals))
            used = [index[(node[0], tuple(d.eval_q(s, qenv) for s in node[1:]))]
                    for side in (lhs, rhs) for _, node in e_paths(side)]
            if used:
                checks[max(used)].append((lhs, rhs, qenv))
    T = [None] * len(cells)
    found = []

    def search(i):
        if i == len(cells):
            found.append(tuple(T))
            return
        sym, qs = cells[i]
        for v in d.fiber(d.cell_fiber(sym, qs)):
            T[i] = v
            if all(partial_derivative(d, T, lhs, qenv)
                   == partial_derivative(d, T, rhs, qenv)
                   for lhs, rhs, qenv in checks[i]):
                search(i + 1)

    search(0)
    found.sort()
    if found:
        zero, add = _two_cochains(d)
        if zero not in set(found):
            raise DatumError("trivial cocycle is not compatible; gate failed")
        _check_subgroup(found, zero, add, "Z2")
    return found


def outcome(call):
    try:
        return "value", call()
    except Exception as exc:  # compared by type with the other side's
        return "raised", type(exc)


@lru_cache(maxsize=None)
def datum(group, kernel):
    return extract_datum(group_extension(catalog()[group], list(kernel)))[0]


def _dims(d, kind, name):
    """The nesting of a datum file's table: f-delta [class][q2]...[qk], an
    action [q at the other positions]...[class]."""
    nq, size = d.qsize(), d.dc.size
    if kind == "fdelta":
        ar = d.signature.arity(name)
        return [size] + [nq] * (ar - 1) if ar else []
    return [nq] * (d.signature.arity(name[0]) - 1) + [size]


def with_entries(d, changes):
    """A copy of d with some f-delta / action entries set to new values (a
    class, or None for a missing entry).  An entry is (kind, name, key):
    kind "fdelta" with name a symbol, or "action" with name (symbol,
    position), and key its index tuple in the datum file's nested table."""
    tables = {"fdelta": {sym: list(tab) for sym, tab in d.fdelta.items()},
              "action": {key: list(tab) for key, tab in d.actions.items()}}
    for (kind, name, key), value in changes:
        i = 0
        for x, n in zip(key, _dims(d, kind, name)):
            i = i * n + x
        tables[kind][name][i] = value
    return AffineDatum(d.q_alg, d.mq_flat, d.asize, d.m_flat, d.alpha, d.dc,
                       d.lifting, {k: tuple(t) for k, t in tables["fdelta"].items()},
                       {k: tuple(t) for k, t in tables["action"].items()}, name=d.name)


def off_fiber_z4():
    """Z4/Z2 with f-delta of mul at (0, 0) moved into the fiber over 1."""
    d = datum("Z4", (0, 2))
    return with_entries(d, [(("fdelta", "mul", (0, 0)), d.fiber(1)[0])])


@pytest.mark.parametrize("group, kernel", DATUMS)
@pytest.mark.parametrize("variety", sorted(EQUATIONS))
def test_weak_gate_matches_reference(group, kernel, variety):
    d = datum(group, tuple(kernel))
    eqs = EQUATIONS[variety]
    assert (check_action_compatible(d, eqs, mode="weak")
            == reference_weak_report(d, eqs))


def test_off_fiber_datum_keeps_its_outcome():
    """An f-delta value off its fiber fails the gate with the reference's
    witnesses, leaves Z2 empty, and h2 stops at B2."""
    from affext.cohomology import h2
    d, eqs = off_fiber_z4(), EQUATIONS["groups"]
    report = check_action_compatible(d, eqs, mode="weak")
    assert not report["holds"]
    assert report == reference_weak_report(d, eqs)
    assert cocycle_group(d, eqs).serialized == []
    with pytest.raises(DatumError, match="B2 does not contain zero"):
        h2(d, eqs)


def _entries(d):
    """Every f-delta and action entry of d, as with_entries names them."""
    return ([("fdelta", sym, key) for sym in sorted(d.fdelta)
             for key in product(*map(range, _dims(d, "fdelta", sym)))]
            + [("action", name, key) for name in sorted(d.actions)
               for key in product(*map(range, _dims(d, "action", name)))])


@st.composite
def perturbed(draw):
    group, kernel = draw(st.sampled_from([("Z4", (0, 2)), ("Z8", (0, 2, 4, 6))]))
    d = datum(group, kernel)
    entries = _entries(d)
    changes = draw(st.lists(st.tuples(st.sampled_from(entries),
                                      st.integers(0, d.dc.size - 1)),
                            min_size=1, max_size=3))
    return with_entries(d, changes), draw(st.sampled_from(sorted(EQUATIONS)))


@settings(max_examples=100, deadline=None)
@given(perturbed())
def test_perturbed_datums_match_references(case):
    d, variety = case
    eqs = EQUATIONS[variety]
    assert (check_action_compatible(d, eqs, mode="weak")
            == reference_weak_report(d, eqs))
    assert (outcome(lambda: cocycle_group(d, eqs).serialized)
            == outcome(lambda: reference_z2(d, eqs)))


def test_reference_z2_on_extracted_datums(group_eqs):
    """The reference search agrees with cocycle_group where the gate holds."""
    for group, kernel in DATUMS:
        d = datum(group, tuple(kernel))
        assert cocycle_group(d, group_eqs).serialized == reference_z2(d, group_eqs)
