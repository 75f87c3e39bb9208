import random
from itertools import product

import pytest

from affext.terms import (GROUP_DIFFERENCE_TERM, TermError, eval_term,
                          linearize_term, parse_term, term_table, term_to_str,
                          term_vars, check_term)


def test_term_vars_of_an_equation():
    lhs, rhs = parse_term("(mul x2 (inv x0))"), parse_term("(mul x1 x2)")
    assert term_vars(lhs) == ["x2", "x0"]
    assert term_vars(lhs, rhs) == ["x2", "x0", "x1"]
    assert term_vars(parse_term("e"), rhs) == ["x1", "x2"]
    assert term_vars() == []


def test_parse_round_trip():
    for text in ["x0", "(inv x1)", "(mul x0 (inv x1))",
                 "(mul (mul x0 x1) x2)", "(mul e x0)", "e"]:
        t = parse_term(text)
        canonical = term_to_str(t)
        assert parse_term(canonical) == t


def test_parse_bare_constant():
    assert parse_term("e") == ("e",)
    assert parse_term("(e)") == ("e",)


def test_parse_errors():
    for bad in ["", "(mul x0", "mul)", "(", "((mul) x0)"]:
        with pytest.raises(TermError):
            parse_term(bad)


def test_eval_projection(cat):
    assert eval_term(cat["Z4"], "x0", {"x0": 3}) == 3


def test_eval_mod4_table(cat):
    t = parse_term("(mul x0 x1)")
    assert eval_term(cat["Z4"], t, {"x0": 1, "x1": 3}) == 0


def test_eval_group_axiom(cat):
    t = parse_term("(mul (inv x0) x0)")
    for x in range(4):
        assert eval_term(cat["Z4"], t, {"x0": x}) == 0


def test_eval_unbound_variable(cat):
    with pytest.raises(TermError):
        eval_term(cat["Z4"], "x5", {"x0": 0})


def test_eval_unknown_symbol(cat):
    with pytest.raises(TermError):
        eval_term(cat["Z4"], parse_term("(foo x0)"), {"x0": 0})


def test_check_term_arity(cat):
    with pytest.raises(TermError):
        check_term(parse_term("(mul x0)"), cat["Z4"].signature)


def test_linearize_repeated():
    t, sigma = linearize_term(parse_term("(mul x0 x0)"))
    assert t == parse_term("(mul x0 x1)")
    assert sigma == {"x0": "x0", "x1": "x0"}


def test_linearize_variable():
    t, sigma = linearize_term("x0")
    assert t == "x0" and sigma == {"x0": "x0"}


def test_linearize_left_to_right():
    t, sigma = linearize_term(parse_term("(mul (inv x1) x0)"))
    assert t == parse_term("(mul (inv x0) x1)")
    assert sigma == {"x0": "x1", "x1": "x0"}


def random_term(rng, depth, nvars):
    """A random group-signature term in x0..x(nvars-1) of depth at most depth."""
    if depth == 0 or rng.random() < 0.3:
        return "x%d" % rng.randrange(nvars)
    name, ar = rng.choice([("mul", 2), ("inv", 1), ("e", 0)])
    return (name,) + tuple(random_term(rng, depth - 1, nvars) for _ in range(ar))


def eval_table(alg, t, variables):
    """term_table by eval_term on every assignment, in product order."""
    return tuple(eval_term(alg, t, dict(zip(variables, vals)))
                 for vals in product(range(alg.size), repeat=len(variables)))


def test_term_table_matches_eval_term(cat):
    rng = random.Random(1)
    ternary = ("x0", "x1", "x2")
    for alg in cat.values():
        terms = [GROUP_DIFFERENCE_TERM, parse_term("e"), "x1",
                 random_term(rng, 4, 3), random_term(rng, 4, 3)]
        for t in terms:
            assert term_table(alg, t, ternary) == eval_table(alg, t, ternary)
        # the variable order fixes the layout; variables may go unused
        t = random_term(rng, 3, 2)
        for variables in (("x1", "x0"), ("x0", "x1", "x5")):
            assert term_table(alg, t, variables) == eval_table(alg, t, variables)


def test_term_table_raises_what_eval_term_raises(cat):
    z4 = cat["Z4"]
    env = {"x0": 0, "x1": 0, "x2": 0}
    for text in ("x5", "(foo x0)", "(mul x3 (foo x0))", "(mul (foo x3) x0)"):
        t = parse_term(text)
        with pytest.raises(TermError) as by_eval:
            eval_term(z4, t, env)
        with pytest.raises(TermError) as by_table:
            term_table(z4, t, ("x0", "x1", "x2"))
        assert str(by_table.value) == str(by_eval.value)
    with pytest.raises(TermError):
        term_table(z4, parse_term("(mul x0)"), ("x0",))


def test_eval_respects_linearize(cat):
    """eval(t, env) = eval(t_sigma, env . sigma) for all env, algebras <= 6."""
    rng = random.Random(0)
    for alg_name in ("Z4", "Z6", "S3"):
        alg = cat[alg_name]
        for _ in range(25):
            t = random_term(rng, 3, 2)
            ts, sigma = linearize_term(t)
            for vals in product(range(alg.size), repeat=2):
                env = {"x0": vals[0], "x1": vals[1]}
                env_sigma = {v: env[sigma[v]] for v in sigma}
                if not term_vars(t):
                    env_sigma = {}
                assert eval_term(alg, t, env) == eval_term(alg, ts, {**env, **env_sigma})
