from itertools import product

import pytest

from affext.algebras import find_isomorphism, satisfies
from affext.congruences import Congruence
from affext.datum import DatumError, extract_datum, group_extension
from affext.cocycles import (_serialized_sub, central_tensor_decomposition,
                             check_cocycle, check_realization,
                             cocycle_difference_coboundary,
                             delta_quotient, e_paths, is_semidirect,
                             partial_derivative,
                             reconstruct, tensor_product, tensor_right_kernel,
                             coboundary_of)
from affext.terms import parse_term, term_vars

from oracles import partial_derivative_recursive, tables_of, weak_sum


def test_e_paths_counts_internal_nodes():
    assert e_paths("x0") == []
    assert len(e_paths(parse_term("(mul x0 x1)"))) == 1
    assert len(e_paths(parse_term("(mul (mul x0 x1) x2)"))) == 2
    assert len(e_paths(parse_term("(mul (inv x0) (mul x1 e))"))) == 4


def test_partial_derivative_base_cases(z4_datum):
    d, T = z4_datum
    # t = f: the transfer cell itself
    t = parse_term("(mul x0 x1)")
    for q1, q2 in product(range(2), repeat=2):
        assert partial_derivative(d, T, t, {"x0": q1, "x1": q2}) == \
            tables_of(d, T)["mul"][q1, q2]
    # bare variable: the fiber identity
    for q in range(2):
        assert partial_derivative(d, T, "x0", {"x0": q}) == d.delta_l(q)


def test_partial_derivative_identified_variables(z4_datum):
    d, T = z4_datum
    t = parse_term("(mul x0 x0)")
    for q in range(2):
        assert partial_derivative(d, T, t, {"x0": q}) == tables_of(d, T)["mul"][q, q]


def test_partial_derivative_associativity_and_recursion(z4_datum):
    d, T = z4_datum
    t1 = parse_term("(mul (mul x0 x1) x2)")
    t2 = parse_term("(mul x0 (mul x1 x2))")
    for qs in product(range(2), repeat=3):
        env = dict(zip(("x0", "x1", "x2"), qs))
        v1 = partial_derivative(d, T, t1, env)
        v2 = partial_derivative(d, T, t2, env)
        assert v1 == v2
        assert v1 == partial_derivative_recursive(d, T, t1, env)
        assert v2 == partial_derivative_recursive(d, T, t2, env)


def test_check_cocycle_extracted_and_trivial(z4_datum, group_eqs):
    d, T = z4_datum
    assert check_cocycle(d, T, group_eqs)["holds"]
    assert check_cocycle(d, d.trivial_cocycle(), group_eqs)["holds"]


def test_check_cocycle_perturbation_fails(z4_datum, group_eqs):
    d, T = z4_datum
    broken = list(T)
    cell = d.cells().index(("mul", (1, 1)))
    fiber = d.fiber(d.dc.rho_class[broken[cell]])
    other = [c for c in fiber if c != broken[cell]][0]
    broken[cell] = other
    rep = check_cocycle(d, tuple(broken), group_eqs)
    assert not rep["holds"]
    assert any(w.get("condition") == "C2" for w in rep["witness"])


def test_reconstruct_round_trip(z4_extension, z4_datum, cat):
    d, T = z4_datum
    rec = reconstruct(d, T)
    assert find_isomorphism(z4_extension.alg, rec.alg) is not None
    rec0 = reconstruct(d, d.trivial_cocycle())
    assert find_isomorphism(cat["Z2xZ2"], rec0.alg) is not None


def test_reconstruct_rejects_c1_violation(z4_datum):
    d, T = z4_datum
    bad = list(T)
    bad[d.cells().index(("mul", (0, 1)))] = d.fiber(0)[0]  # wrong fiber
    with pytest.raises(DatumError):
        reconstruct(d, tuple(bad))


@pytest.mark.parametrize("cut", ["short", "long"])
def test_wrong_length_cochains_raise(z4_datum, group_eqs, cut):
    """A cochain one cell short or one cell long is refused, not cut to
    the cells by zip."""
    from affext.cohomology import are_equivalent
    d, T = z4_datum
    bad = T[:-1] if cut == "short" else T + (T[0],)
    with pytest.raises(DatumError, match="2-cochain has"):
        reconstruct(d, bad)
    with pytest.raises(DatumError, match="2-cochain has"):
        check_cocycle(d, bad, group_eqs)
    with pytest.raises(DatumError, match="2-cochain has"):
        are_equivalent(d, bad, T)
    with pytest.raises(DatumError, match="2-cochain has"):
        are_equivalent(d, T, bad)


def test_reconstruction_satisfies_compatible_equations(z4_datum, group_eqs,
                                                       abelian_eqs):
    """Membership: reconstructions satisfy every equation the cocycle is
    compatible with."""
    d, _ = z4_datum
    from affext.cohomology import cocycle_group
    z2r = cocycle_group(d, group_eqs)
    for s in z2r.serialized:
        rec = reconstruct(d, s)
        assert satisfies(rec.alg, group_eqs) is None
    zab = cocycle_group(d, abelian_eqs)
    for s in zab.serialized:
        rec = reconstruct(d, s)
        assert satisfies(rec.alg, abelian_eqs) is None


def test_repterm_decomposition(z4_datum):
    """F_t = (transfer-free sum) +_u t^{d,T} on terms of depth <= 3."""
    d, T = z4_datum
    rec = reconstruct(d, T)
    terms = [parse_term(s) for s in
             ("x0", "(mul x0 x1)", "(inv x0)", "(mul (mul x0 x1) x2)",
              "(mul (inv x0) (mul x1 x1))", "(mul (mul x0 (inv x1)) (mul x1 x2))",
              "(mul e (inv (mul x0 x0)))")]
    from affext.terms import eval_term
    for t in terms:
        vs = term_vars(t)
        for cs in product(range(d.dc.size), repeat=len(vs)):
            env = dict(zip(vs, cs))
            qenv = {v: d.dc.rho_class[env[v]] for v in vs}
            full = eval_term(rec.alg, t, env)
            s_part = weak_sum(d, t, env)
            d_part = partial_derivative(d, T, t, qenv)
            u = d.eval_q(t, qenv)
            assert full == d.plus_at(u, s_part, d_part), (t, env)


def test_group_cocycle_identity_specialization(z4_datum):
    """C2 on associativity equals the classical identity
    f(x,y) + f(xy,z) = x*f(y,z) + f(x,yz) under the fiber isomorphism."""
    d, T = z4_datum
    # fiber over q is the coset of the kernel {0,2}; translate classes to
    # kernel elements via the affine rule at the base point l(q)
    def to_k(cls):
        a, b = d.dc.class_reps[cls]
        # translation b - a in Z4 lands in the kernel {0,2}; report 0 or 1
        return ((b - a) % 4) // 2

    f = {(x, y): to_k(tables_of(d, T)["mul"][x, y]) for x in range(2) for y in range(2)}
    mulq = lambda x, y: d.q_alg.op("mul", x, y)
    for x, y, z in product(range(2), repeat=3):
        lhs = (f[(x, y)] + f[(mulq(x, y), z)]) % 2
        rhs = (f[(y, z)] + f[(x, mulq(y, z))]) % 2  # trivial action
        assert lhs == rhs


def test_realization_examples(z4_datum, z4_extension, cat):
    d, T = z4_datum
    rec = reconstruct(d, T)
    assert check_realization(rec, d)["holds"]
    assert check_realization(z4_extension, d)["holds"]
    v4 = group_extension(cat["Z2xZ2"], [0, 1])
    assert check_realization(v4, d)["holds"]


def test_realization_rejects_wrong_datum(cat):
    """The S3 datum is not realized by Z6 (same Q and kernel sizes)."""
    ext_s3 = group_extension(cat["S3"], [0, 3, 4])
    d_s3, _ = extract_datum(ext_s3)
    z6 = cat["Z6"]
    from affext.groups import element_orders
    kernel = [x for x in range(6) if element_orders(z6)[x] in (1, 3)]
    ext_z6 = group_extension(z6, kernel)
    rep = check_realization(ext_z6, d_s3)
    assert not rep["holds"]


def test_is_semidirect_examples(cat):
    z4 = group_extension(cat["Z4"], [0, 2])
    assert is_semidirect(z4) is None
    v4 = group_extension(cat["Z2xZ2"], [0, 1])
    r = is_semidirect(v4)
    assert r is not None and all(r[r[x]] == r[x] for x in range(4))
    triv = group_extension(cat["Z4"], [0])
    assert is_semidirect(triv) == [0, 1, 2, 3]


def test_semidirect_matches_lifting_homomorphism(cat):
    """Prop 6 equivalences (1)-(3) agree on the catalog."""
    from affext.algebras import quotient_algebra, is_homomorphism
    cases = [("Z4", [0, 2], False), ("Z2xZ2", [0, 1], True),
             ("D4", [0, 4], False), ("Q8", [0, 4], False),
             ("S3", [0, 3, 4], True), ("Z2xZ4", [0, 4], True),
             ("Z2xZ4", [0, 2], False)]
    for name, kernel, expected in cases:
        ext = group_extension(cat[name], kernel)
        alg, beta = ext.alg, ext.beta
        retraction = is_semidirect(ext)
        # (1): A isomorphic to the pair quotient A(alpha)/Delta_{aa}
        qd, pa, cm = delta_quotient(alg, beta, beta)
        iso = find_isomorphism(alg, qd)
        # (2): a homomorphic lifting exists
        hom_lift = False
        blocks = beta.blocks()
        q_alg, bm = quotient_algebra(alg, beta)
        for reps in product(*blocks):
            lift = [0] * q_alg.size
            for block, rep in zip(blocks, reps):
                lift[bm[block[0]]] = rep
            mapping = [lift[q] for q in range(q_alg.size)]
            if is_homomorphism(mapping, q_alg, alg):
                hom_lift = True
                break
        assert (retraction is not None) == expected, name
        assert (iso is not None) == expected, name
        assert hom_lift == expected, name


def test_tensor_product_examples(cat):
    z2 = cat["Z2"]
    plus = tuple((a + b) % 2 for a in range(2) for b in range(2))
    # constant-zero transfer: right projection kernel is central
    t0 = {"mul": {(a, b): 0 for a in range(2) for b in range(2)},
          "inv": {(0,): 0, (1,): 0}, "e": {(): 0}}
    prod0 = tensor_product(z2, z2, plus, t0)
    from affext.commutator import tc_commutator
    assert tc_commutator(prod0, Congruence.all(4),
                         tensor_right_kernel(z2, z2)).is_equality()
    assert find_isomorphism(prod0, cat["Z2xZ2"]) is not None
    # the classical cyclic extension table (T_inv(1) = 1 makes inv match)
    t1 = {"mul": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
          "inv": {(0,): 0, (1,): 1}, "e": {(): 0}}
    prod1 = tensor_product(z2, z2, plus, t1)
    assert find_isomorphism(prod1, cat["Z4"]) is not None
    # singleton B gives a copy of Q
    one = cat["Z1"]
    plus1 = (0,)
    tq = {"mul": {(a, b): 0 for a in range(2) for b in range(2)},
          "inv": {(0,): 0, (1,): 0}, "e": {(): 0}}
    prodq = tensor_product(one, z2, plus1, tq)
    assert find_isomorphism(prodq, z2) is not None


def test_coboundary_difference_examples(z4_datum, cat):
    d, T = z4_datum
    # T' = T: the constant-diagonal witness
    h = cocycle_difference_coboundary(d, T, T)
    assert h == tuple(d.delta_l(q) for q in range(2))
    # two liftings of Z4 give cocycles differing by a coboundary
    ext2 = group_extension(cat["Z4"], [0, 2], lifting=[0, 3])
    d2, T2 = extract_datum(ext2)
    h = cocycle_difference_coboundary(d, T, T2)
    assert h is not None
    # the predicted witness h(x) = [l(x) // l'(x)]/Delta works directly
    predicted = tuple(d.dc.class_of_pair(d.lifting[q], [0, 3][q])
                      for q in range(2))
    diff = _serialized_sub(d, T2, T)
    assert coboundary_of(d, predicted) == diff
    # extracted vs trivial: no witness (Z4 is not the split class)
    assert cocycle_difference_coboundary(d, T, d.trivial_cocycle()) is None


def test_central_tensor_well_defined(cat):
    out = central_tensor_decomposition(cat["Z4"],
                                       Congruence.from_blocks(4, [[0, 2], [1, 3]]),
                                       parse_term("(mul x0 (mul (inv x1) x2))"))
    assert out["iso"] is not None
    assert out["B"].size == 2 and out["Q"].size == 2


def test_nilpotent_decomposition_general(cat):
    from affext.cocycles import lower_central_series, nilpotent_decomposition
    from affext.commutator import is_abelian
    from affext.terms import GROUP_DIFFERENCE_TERM
    for name, steps in (("Z8", 1), ("Z2xZ4", 1), ("D4", 2), ("Q8", 2)):
        out = nilpotent_decomposition(cat[name], GROUP_DIFFERENCE_TERM)
        assert out["nilpotent"] and out["steps"] == steps
        assert out["iso"] is not None
        for f in out["factors"]:
            assert is_abelian(f, Congruence.all(f.size))
    out = nilpotent_decomposition(cat["S3"], GROUP_DIFFERENCE_TERM)
    assert not out["nilpotent"]
    series, nilpotent = lower_central_series(cat["S3"])
    assert not nilpotent
    assert [c.block_count() for c in series] == [1, 2, 2]
