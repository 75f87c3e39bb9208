from itertools import product

import pytest

from affext.algebras import AlgebraError
from affext.groups import (catalog, center, classical_coboundary, classical_h2,
                           commutator_subgroup, element_orders,
                           inversion_action, is_abelian_group, is_action,
                           is_group, iso_type, mul_of, semidirect_extension,
                           subgroup_generated, trivial_action, verify_grp_lemma)


def test_catalog_sanity(cat):
    expected = {"Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z2xZ2": 4, "Z5": 5,
                "Z6": 6, "S3": 6, "Z7": 7, "Z8": 8, "Z2xZ4": 8,
                "Z2xZ2xZ2": 8, "D4": 8, "Q8": 8}
    assert {k: v.size for k, v in cat.items()} == expected
    for g in cat.values():
        assert is_group(g)
    assert not is_abelian_group(cat["S3"])
    assert not is_abelian_group(cat["D4"])
    assert not is_abelian_group(cat["Q8"])
    assert is_abelian_group(cat["Z2xZ4"])


def test_catalog_is_built_once_and_returned_fresh():
    """Each call is a new dict over the same group objects, so one
    caller's changes to its dict do not reach the next."""
    first = catalog()
    second = catalog()
    assert first is not second
    assert first.keys() == second.keys()
    assert all(first[name] is second[name] for name in first)
    del first["Z1"]
    first["Z2"] = first["Z3"]
    first["extra"] = first["Z4"]
    third = catalog()
    assert third.keys() == second.keys()
    assert all(third[name] is second[name] for name in second)


def test_element_orders(cat):
    assert sorted(element_orders(cat["Q8"])) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert sorted(element_orders(cat["D4"])) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_center_and_commutator(cat):
    d4 = cat["D4"]
    zc = subgroup_generated(d4, center(d4))
    assert len(zc) == 2
    derived = commutator_subgroup(d4, list(range(8)), list(range(8)))
    assert sorted(derived) == sorted(zc)
    s3 = cat["S3"]
    assert len(center(s3)) == 1
    assert len(commutator_subgroup(s3, list(range(6)), list(range(6)))) == 3


def test_classical_h2_z2_z2(cat):
    res = classical_h2(cat["Z2"], cat["Z2"], trivial_action(cat["Z2"], cat["Z2"]))
    assert res.order == 2
    assert res.class_types() == ["Z2xZ2", "Z4"]
    # the identity pins f(e,e)=f(e,x)=f(x,e); f(1,1) and the pinned value
    # are free, so |Z2| = 4 and the 4 witness maps give |B2| = 2
    assert len(res.cocycles) == 4
    assert len(res.coboundaries) == 2


def test_classical_h2_trivial_quotient(cat):
    res = classical_h2(cat["Z2"], cat["Z1"], trivial_action(cat["Z2"], cat["Z1"]))
    assert res.order == 1
    assert res.class_types() == ["Z2"]


def test_classical_h2_s3_from_inversion(cat):
    res = classical_h2(cat["Z3"], cat["Z2"], inversion_action(cat["Z3"], cat["Z2"]))
    assert res.order == 1
    assert res.class_types() == ["S3"]


def test_classical_h2_rejects_nonabelian_kernel(cat):
    with pytest.raises(AlgebraError):
        classical_h2(cat["S3"], cat["Z2"], trivial_action(cat["S3"], cat["Z2"]))


def test_classical_h2_rejects_non_action(cat):
    bad = tuple(tuple((k + 1) % 2 for k in range(2)) for _ in range(2))
    with pytest.raises(AlgebraError):
        classical_h2(cat["Z2"], cat["Z2"], bad)


def classical_cocycle_identity(k_alg, q_alg, phi, f):
    """f(x,y)+f(xy,z) = x*f(y,z)+f(x,yz) for all x,y,z (K written additively)."""
    for x in range(q_alg.size):
        for y in range(q_alg.size):
            for z in range(q_alg.size):
                lhs = mul_of(k_alg, f[x][y], f[mul_of(q_alg, x, y)][z])
                rhs = mul_of(k_alg, phi[x][f[y][z]], f[x][mul_of(q_alg, y, z)])
                if lhs != rhs:
                    return False
    return True


def brute_classical_h2(k_alg, q_alg, phi, cat):
    """Z2 by testing every map Q x Q -> K, classes by the least member of
    each coset f + B2: (cocycles, coboundaries, [(representative, type)])."""
    nk, nq = k_alg.size, q_alg.size
    cells = [(x, y) for x in range(nq) for y in range(nq)]
    cocycles = []
    for values in product(range(nk), repeat=len(cells)):
        f = [[0] * nq for _ in range(nq)]
        for (x, y), v in zip(cells, values):
            f[x][y] = v
        f = tuple(tuple(row) for row in f)
        if classical_cocycle_identity(k_alg, q_alg, phi, f):
            cocycles.append(f)
    coboundaries = {classical_coboundary(k_alg, q_alg, phi, h)
                    for h in product(range(nk), repeat=nq)}

    def f_add(f1, f2):
        return tuple(tuple(mul_of(k_alg, f1[x][y], f2[x][y]) for y in range(nq))
                     for x in range(nq))

    seen = set()
    classes = []
    for f in cocycles:
        coset = min(f_add(f, g) for g in coboundaries)
        if coset in seen:
            continue
        seen.add(coset)
        ext = semidirect_extension(k_alg, q_alg, phi, f)
        classes.append((f, iso_type(ext, cat) or "unknown"))
    return cocycles, sorted(coboundaries), classes


def _brute_cases():
    """Abelian catalog K and catalog Q with at most 2^16 maps Q x Q -> K,
    under the trivial action and, where it is one, the inversion action."""
    cat = catalog()
    cases = []
    for k_name, k_alg in sorted(cat.items()):
        for q_name, q_alg in sorted(cat.items()):
            if not is_abelian_group(k_alg) or k_alg.size ** (q_alg.size ** 2) > 1 << 16:
                continue
            for act in (trivial_action, inversion_action):
                if is_action(k_alg, q_alg, act(k_alg, q_alg)):
                    cases.append((k_name, q_name, act))
    return cases


@pytest.mark.parametrize("k_name,q_name,act", _brute_cases(),
                         ids=lambda v: getattr(v, "__name__", v))
def test_classical_h2_matches_brute_enumeration(cat, k_name, q_name, act):
    k_alg, q_alg = cat[k_name], cat[q_name]
    phi = act(k_alg, q_alg)
    res = classical_h2(k_alg, q_alg, phi, cat=cat)
    got = (res.cocycles, res.coboundaries, [(f, t) for f, _, t in res.classes])
    assert got == brute_classical_h2(k_alg, q_alg, phi, cat)


def test_semidirect_extension_s3(cat):
    ext = semidirect_extension(cat["Z3"], cat["Z2"],
                               inversion_action(cat["Z3"], cat["Z2"]))
    assert iso_type(ext) == "S3"


def test_is_action_validates(cat):
    assert is_action(cat["Z3"], cat["Z2"], inversion_action(cat["Z3"], cat["Z2"]))
    assert is_action(cat["Z2"], cat["Z2xZ2"], trivial_action(cat["Z2"], cat["Z2xZ2"]))


def test_grp_lemma_z4(cat):
    rep = verify_grp_lemma(cat["Z4"], [0, 2])
    assert rep["holds"], rep


def test_grp_lemma_d4_center(cat):
    d4 = cat["D4"]
    rep = verify_grp_lemma(d4, subgroup_generated(d4, center(d4)))
    assert rep["holds"], rep
    assert rep["parts"]["transfer matches l(x)l(y)l(xy)^-1"] is True


def test_grp_lemma_q8_center(cat):
    q8 = cat["Q8"]
    rep = verify_grp_lemma(q8, subgroup_generated(q8, center(q8)))
    assert rep["holds"], rep


def test_grp_lemma_trivial_kernel(cat):
    rep = verify_grp_lemma(cat["Z4"], [0])
    assert rep["holds"], rep


def test_grp_lemma_s3_a3(cat):
    """Nonabelian ambient group, abelian normal kernel (H = K case)."""
    rep = verify_grp_lemma(cat["S3"], [0, 3, 4])
    assert rep["holds"], rep


def test_grp_lemma_rejects_bad_kernel(cat):
    with pytest.raises(AlgebraError):
        verify_grp_lemma(cat["S3"], [0, 1])  # not normal
    with pytest.raises(AlgebraError):
        verify_grp_lemma(cat["Q8"], list(range(8)))  # not abelian
