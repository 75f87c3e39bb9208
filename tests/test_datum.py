from itertools import product

import pytest

from affext.algebras import FiniteAlgebra
from affext.congruences import Congruence, delta, delta_by_cg, pair_algebra
from affext.datum import (_M_SIGNATURE, DatumError, ExtensionRecord,
                          check_action_compatible, extract_datum, group_extension,
                          m_rule_delta, validate_datum, compatible_value)
from affext.serialization import InputError, datum_from_json, datum_to_json
from affext.verify import catalog_extensions
from affext.terms import parse_term

from oracles import plus_u, tables_of, triplewise_m_table, weak_sum
from test_weak_gate_oracle import with_entries


def test_extract_z4_transfer_values(z4_datum):
    """With the least-element lifting, T_mul(1,1) is the class of (0,2)."""
    d, T = z4_datum
    assert d.qsize() == 2
    assert d.dc.size == 4
    cls_02 = d.dc.class_of_pair(0, 2)
    tables = tables_of(d, T)
    assert tables["mul"][1, 1] == cls_02
    assert tables["mul"][0, 0] == d.dc.class_of_pair(0, 0)
    assert tables["e"][()] == d.dc.class_of_pair(0, 0)


def test_extract_product_gives_trivial_cocycle(cat):
    """A product lifting is a homomorphism, so the transfer is trivial."""
    ext = group_extension(cat["Z2xZ2"], [0, 1])
    d, T = extract_datum(ext)
    assert T == d.trivial_cocycle()


def test_extract_equality_kernel_degenerate(cat):
    z4 = cat["Z4"]
    ext = ExtensionRecord.from_kernel(z4, Congruence.equality(4),
                                      "(mul x0 (mul (inv x1) x2))")
    d, T = extract_datum(ext)
    assert d.dc.size == 4  # diagonal only
    assert all(d.dc.is_diagonal(c) for c in range(d.dc.size))
    assert T == d.trivial_cocycle()


def test_extract_requires_abelian_kernel(cat):
    s3 = cat["S3"]
    with pytest.raises(DatumError):
        ext = ExtensionRecord.from_kernel(s3, Congruence.all(6),
                                          "(mul x0 (mul (inv x1) x2))")
        extract_datum(ext)


def _z4_ternary_table():
    return tuple((a - b + c) % 4 for a, b, c in product(range(4), repeat=3))


@pytest.mark.parametrize("case, cap, stage, size", [
    ("group", 10, "pair_algebra", 8),  # |A(beta)| = 8 and 8**2 > 10
    ("unary", 10, "m_matrices", 64),  # 8**1 fits, the 8 * 8 quadruples do not
    ("ternary", 100, "is_abelian", 192),  # 3 * 4**2 * 4 translation entries
])
def test_extract_caps_keep_their_stage(cat, case, cap, stage, size):
    """extract_datum meets the caps of its kernel test in the order is_abelian
    meets them: on the tc route the pair algebra's cap, then M(beta,beta)'s;
    on the Mal'cev route the translation test's, before any Delta work."""
    from affext.algebras import CapExceeded, Signature
    beta = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    if case == "group":
        ext = group_extension(cat["Z4"], [0, 2])
    else:
        sym, ar, tab = (("s", 1, (1, 2, 3, 0)) if case == "unary"
                        else ("t", 3, _z4_ternary_table()))
        alg = FiniteAlgebra(4, Signature([(sym, ar)]), {sym: tab})
        ext = ExtensionRecord.from_kernel(alg, beta, _z4_ternary_table())
    with pytest.raises(CapExceeded) as info:
        extract_datum(ext, cap=cap)
    assert (info.value.stage, info.value.size, info.value.cap) == (stage, size, cap)


def test_extract_refuses_a_nonabelian_malcev_kernel_before_its_caps(cat):
    """<S3, x y^-1 z> over the all-congruence: the basic ternary operation is
    Mal'cev on the block and no abelian group operation, so the kernel test
    says no before any cap is read."""
    from affext.algebras import Signature
    from affext.terms import GROUP_DIFFERENCE_TERM, term_table
    t = term_table(cat["S3"], GROUP_DIFFERENCE_TERM, ("x0", "x1", "x2"))
    alg = FiniteAlgebra(6, Signature([("t", 3)]), {"t": t})
    ext = ExtensionRecord.from_kernel(alg, Congruence.all(6), t)
    with pytest.raises(DatumError, match="kernel congruence is not abelian"):
        extract_datum(ext, cap=1)


def test_validate_extracted(z4_datum):
    d, _ = z4_datum
    report = validate_datum(d)
    assert all(r["holds"] for r in report), \
        [r for r in report if not r["holds"]]


def test_validate_catches_constant_fdelta(z4_datum):
    """Replacing f-delta by a constant map on a fiber breaks (D1)."""
    d, _ = z4_datum
    const = d.fdelta_apply("mul", 0, (0,))
    broken = with_entries(d, [(("fdelta", "mul", (c, 0)), const) for c in d.fiber(0)])
    report = validate_datum(broken)
    failed = {r["claim"] for r in report if not r["holds"]}
    assert any("(D1)" in c or "(AD2)" in c for c in failed), failed


def test_validate_catches_nonsurjective_rho(z4_datum):
    import copy
    d, _ = z4_datum
    broken = copy.copy(d)
    broken.dc = copy.copy(d.dc)
    broken.dc.rho_class = [0 for _ in d.dc.rho_class]
    report = validate_datum(broken)
    failed = {r["claim"] for r in report if not r["holds"]}
    assert "(D3) rho surjective" in failed


def test_validate_reports_the_ad1_witness(z4_datum):
    """An m that leaves its alpha-block fails (AD1) with the reason."""
    import copy
    d, _ = z4_datum
    n = d.asize
    i, j = 0, (1 * n + 1) * n + 1  # m(0,0,0) and m(1,1,1)
    assert not d.alpha.related(d.m_flat[i], d.m_flat[j])
    m_flat = list(d.m_flat)
    m_flat[i], m_flat[j] = m_flat[j], m_flat[i]
    broken = copy.copy(d)
    broken.dc = copy.copy(d.dc)
    broken.m_flat = broken.dc.m_flat = tuple(m_flat)
    report = validate_datum(broken)
    ad1 = next(r for r in report if r["claim"].startswith("(AD1)"))
    assert not ad1["holds"]
    assert "not block-preserving" in ad1["witness"]


def test_validate_reports_an_m_that_is_not_beta_compatible(cat):
    """m is x - y + z inside the kernel blocks of Z4 over {0,2},{1,3} and
    not beta-compatible across them; extraction succeeds, the (D3) check
    meets a class triple with no m-class, and the report says so instead
    of raising."""
    def m(x, y, z):
        if x % 2 == y % 2 == z % 2:
            return (x - y + z) % 4
        return x if x < 2 else (x + 1) % 4
    beta = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    table = tuple(m(*t) for t in product(range(4), repeat=3))
    d, _ = extract_datum(ExtensionRecord.from_kernel(cat["Z4"], beta, table))
    with pytest.raises(KeyError):
        for t in product(range(d.dc.size), repeat=3):
            d.dc.m_class(*t)
    report = {r["claim"]: r for r in validate_datum(d)}
    d3 = report["(D3) rho is a homomorphism A(alpha) -> <Q,m>"]
    assert not d3["holds"] and d3["witness"].startswith("check raised: ")
    assert not report["alpha is a congruence of <A,m>"]["holds"]


class _CountedRows(tuple):
    """A flat table that records its slice reads in self.rows."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.rows.append(key)
        return tuple.__getitem__(self, key)


def test_m_class_entries_are_computed_once(cat, group_eqs):
    """reconstruct, h2 and h1 on one datum compute the class-level m table
    once, a row of z at a time: two rows of m_flat per pair of classes
    (x, y), for the first and the second coordinates, and a second round
    reads no row.  Every slot is filled, with the triple-by-triple value."""
    from affext.cocycles import reconstruct
    from affext.cohomology import h1, h2
    for name, kernel in [("Z4", [0, 2]), ("S3", [0, 3, 4]), ("D4", [0, 2, 4, 6])]:
        d, T = extract_datum(group_extension(cat[name], kernel))
        d.dc.m_flat = spy = _CountedRows(d.dc.m_flat)
        spy.rows = []
        for _ in range(2):
            reconstruct(d, T)
            h2(d, group_eqs)
            h1(d)
            assert len(spy.rows) == 2 * d.dc.size ** 2, name
        d.dc.m_flat = tuple(spy)
        assert d.dc.m_table() == triplewise_m_table(d.dc)
        assert None not in d.dc.m_table()  # reconstruct's m table reads all


def test_plus_u_basics(z4_datum):
    d, _ = z4_datum
    for q in range(d.qsize()):
        ident = d.delta_l(q)
        for x in d.fiber(q):
            assert d.plus_at(q, x, ident) == x
            assert d.plus_at(q, ident, x) == x
    # fiber over 0: class(0,2) + class(0,2) = class(0,0)
    c02 = d.dc.class_of_pair(0, 2)
    c00 = d.dc.class_of_pair(0, 0)
    assert d.plus_at(0, c02, c02) == c00


def test_plus_u_rejects_mixed_fibers(z4_datum):
    d, _ = z4_datum
    with pytest.raises(DatumError):
        plus_u(d, d.fiber(0)[0], 0, d.fiber(1)[0])


def test_weak_compatibility_group_axioms(z4_datum, group_eqs):
    d, _ = z4_datum
    rep = check_action_compatible(d, group_eqs, mode="weak")
    assert rep["holds"], rep["witness"]


def test_weak_compatibility_trivial_equation(z4_datum):
    d, _ = z4_datum
    rep = check_action_compatible(d, [(parse_term("x0"), parse_term("x0"))],
                                  mode="weak")
    assert rep["holds"]


def test_weak_compatibility_commutativity(z4_datum):
    d, _ = z4_datum
    comm = [(parse_term("(mul x0 x1)"), parse_term("(mul x1 x0)"))]
    rep = check_action_compatible(d, comm, mode="weak")
    assert rep["holds"], rep["witness"]


def test_full_compatibility_group_axioms(z4_datum, group_eqs):
    d, _ = z4_datum
    rep = check_action_compatible(d, group_eqs, mode="full")
    assert rep["holds"], rep["witness"]


def test_full_compatibility_s3_datum(cat, group_eqs):
    ext = group_extension(cat["S3"], [0, 3, 4])
    d, _ = extract_datum(ext)
    rep = check_action_compatible(d, group_eqs, mode="full")
    assert rep["holds"], rep["witness"]


def test_weak_compatibility_fails_when_q_violates(z4_datum):
    d, _ = z4_datum
    wrong = [(parse_term("(mul x0 x1)"), parse_term("e"))]
    rep = check_action_compatible(d, wrong, mode="weak")
    assert not rep["holds"]
    assert rep["witness"]["reason"] == "Q does not satisfy the equations"


def test_compatible_value_patterns(z4_datum):
    """Compatible sequences: action on one class among Q values, f-delta on
    a leading class with diagonal tails, nothing on incompatible mixes."""
    d, _ = z4_datum
    t = parse_term("(mul x0 x1)")
    c = d.fiber(1)[1]
    diag = d.delta_l(1)
    v = compatible_value(d, t, {"x0": ("u", c), "x1": ("q", 1)})
    assert v is not None and v[0] == "u"
    v2 = compatible_value(d, t, {"x0": ("u", c), "x1": ("u", diag)})
    assert v2 is not None and v2[0] == "u"
    v3 = compatible_value(d, t, {"x0": ("u", diag), "x1": ("u", c)})
    assert v3 is None  # general class in a non-leading position of f-delta
    v4 = compatible_value(d, t, {"x0": ("q", 1), "x1": ("q", 1)})
    assert v4 == ("q", 0)


def test_weak_sum_matches_pair_quotient(z4_extension, z4_datum):
    """The transfer-free sum reproduces evaluation in A(alpha)/Delta."""
    d, _ = z4_datum
    ext = z4_extension
    pairs = d.dc
    terms = [parse_term(s) for s in
             ("(mul x0 x1)", "(mul (mul x0 x1) x2)", "(inv (mul x0 x1))",
              "(mul e x0)", "(mul x0 (inv x1))", "(mul x0 x0)",
              "(mul (mul x0 x0) (inv x0))", "(mul (inv x1) (mul x1 x1))")]
    for t in terms:
        from affext.terms import term_vars
        vs = term_vars(t)
        for cs in product(range(d.dc.size), repeat=len(vs)):
            env = dict(zip(vs, cs))
            got = weak_sum(d, t, env)
            # oracle: evaluate in the pair algebra on representatives
            reps = {v: pairs.class_reps[env[v]] for v in vs}
            top = {v: reps[v][0] for v in vs}
            bot = {v: reps[v][1] for v in vs}
            from affext.terms import eval_term
            expect = pairs.class_of_pair(eval_term(ext.alg, t, top),
                                         eval_term(ext.alg, t, bot))
            assert got == expect, (t, env)


def test_extract_with_raw_m_table(cat):
    """m may be supplied as a raw ternary table instead of a term."""
    from affext.algebras import find_isomorphism
    from affext.cocycles import reconstruct
    z4 = cat["Z4"]
    m_flat = tuple((a - b + c) % 4
                   for a in range(4) for b in range(4) for c in range(4))
    ext = ExtensionRecord.from_kernel(z4, Congruence.from_blocks(4, [[0, 2], [1, 3]]),
                                      m_flat)
    d, T = extract_datum(ext)
    assert find_isomorphism(z4, reconstruct(d, T).alg) is not None


@pytest.mark.parametrize("name", [name for name, _ in catalog_extensions()])
def test_m_rule_partition_is_delta(cat, name):
    """On <A,m> of each catalog datum the m-rule partition, Cg and
    congruences.delta() (Cg checked against Tr M) give one congruence."""
    d, _ = extract_datum(dict(catalog_extensions(cat))[name])
    m_alg = FiniteAlgebra(d.asize, _M_SIGNATURE, {"m": d.m_flat})
    pairalg = pair_algebra(m_alg, d.alpha)
    via_rule = m_rule_delta(d.alpha, pairalg.pairs, d.dc.m_elem)
    assert via_rule == delta_by_cg(pairalg, d.alpha) == delta(m_alg, d.alpha, d.alpha)
    assert via_rule == d.dc.delta_cong


def test_loading_runs_tr_m_only_off_the_m_rule(cat, monkeypatch):
    """A datum file loads through Cg and the m-rule; an m that is not affine
    on the blocks parts them, and Cg against Tr M decides as before."""
    import affext.datum as datum_module
    d, _ = extract_datum(group_extension(cat["Z6"], [0, 2, 4]))
    doc = datum_to_json(d)
    tr_m = []
    monkeypatch.setattr(datum_module, "delta_congruence",
                        lambda *a, **k: tr_m.append(a) or delta(*a, **k))
    assert datum_from_json(doc).dc.delta_cong == d.dc.delta_cong
    assert tr_m == []
    n = d.asize
    doc["m"] = [[[a for _ in range(n)] for _ in range(n)] for a in range(n)]
    with pytest.raises(InputError, match="fdelta of 'mul' lacks a value"):
        datum_from_json(doc)
    assert len(tr_m) == 1
