import gc
import math
import random
import weakref

import numpy as np
import pytest

from randopt import exprlang
from randopt.errors import DimensionError, DivByZero, DomainViolation, ParseError
from randopt.exprlang import Env, differentiate, evaluate, parse, to_string


# --- parsing ----------------------------------------------------------------


def test_parse_paper_example():
    e = parse("x1^4 - 2*x1^2", 1, 0)
    assert to_string(e) == "x1^4 - 2*x1^2"


def test_parse_two_vars():
    e = parse("x1^2 + sin(x2)", 2, 0)
    assert evaluate(e, Env((2.0, 0.0))) == 4.0


def test_parse_out_of_range_var():
    with pytest.raises(DimensionError) as exc:
        parse("x3 + 1", 2, 0)
    assert exc.value.index == 3
    assert exc.value.declared == 2


def test_parse_out_of_range_param():
    with pytest.raises(DimensionError):
        parse("p2*x1", 1, 1)


def test_parse_error_offset():
    with pytest.raises(ParseError) as exc:
        parse("x1^^2", 1, 0)
    assert exc.value.offset == 3
    assert exc.value.expected


def test_parse_error_unknown_ident():
    with pytest.raises(ParseError):
        parse("y1 + 1", 1, 0)


def test_parse_error_trailing_tokens():
    with pytest.raises(ParseError) as exc:
        parse("x1 x1", 1, 0)
    assert exc.value.offset == 3


def test_parse_error_fractional_exponent():
    with pytest.raises(ParseError):
        parse("x1^2.5", 1, 0)


def test_parse_negative_exponent():
    e = parse("x1^-2", 1, 0)
    assert evaluate(e, Env((2.0,))) == 0.25


def test_power_binds_tighter_than_unary_minus():
    e = parse("-x1^2", 1, 0)
    assert evaluate(e, Env((3.0,))) == -9.0


def test_precedence_and_associativity():
    assert evaluate(parse("2 + 3*4", 1, 0), Env((0.0,))) == 14.0
    assert evaluate(parse("2 - 3 - 4", 1, 0), Env((0.0,))) == -5.0
    assert evaluate(parse("24/4/2", 1, 0), Env((0.0,))) == 3.0
    assert evaluate(parse("2*(3 + 4)", 1, 0), Env((0.0,))) == 14.0


def test_scientific_literals():
    assert evaluate(parse("1e-2 + 2.5E3", 1, 0), Env((0.0,))) == 0.01 + 2500.0


# --- evaluation --------------------------------------------------------------


def test_eval_paper_value():
    e = parse("x1^4 - 2*x1^2", 1, 0)
    assert evaluate(e, Env((1.0,))) == -1.0


def test_eval_log_domain():
    with pytest.raises(DomainViolation):
        evaluate(parse("log(x1)", 1, 0), Env((-1.0,)))


def test_eval_sqrt_domain():
    with pytest.raises(DomainViolation):
        evaluate(parse("sqrt(x1)", 1, 0), Env((-4.0,)))


def test_eval_div_by_zero():
    with pytest.raises(DivByZero):
        evaluate(parse("1/x1", 1, 0), Env((0.0,)))


def test_eval_zero_to_negative_power():
    with pytest.raises(DivByZero):
        evaluate(parse("x1^-1", 1, 0), Env((0.0,)))


def test_eval_overflow_is_error_not_inf():
    with pytest.raises(DomainViolation):
        evaluate(parse("exp(x1)", 1, 0), Env((1e4,)))


def test_eval_params():
    e = parse("(x1 - p1)^2", 1, 1)
    assert evaluate(e, Env((2.0,), (2.0,))) == 0.0


def test_eval_batch_matches_scalar_and_masks():
    import numpy as np

    e = parse("log(x1)", 1, 0)
    X = np.array([[1.0], [math.e], [-1.0], [0.0]])
    values, valid = exprlang.eval_batch(e, X)
    assert valid.tolist() == [True, True, False, False]
    assert values[0] == 0.0
    assert abs(values[1] - 1.0) < 1e-15


# --- differentiation ---------------------------------------------------------


def test_derivative_paper_gradient():
    e = parse("x1^4 - 2*x1^2", 1, 0)
    d = differentiate(e, 1)
    assert to_string(d) == "4*x1^3 - 4*x1"
    # vanishes at the three stationary points of the double well
    for x in (-1.0, 0.0, 1.0):
        assert evaluate(d, Env((x,))) == 0.0


def test_derivative_power_rule():
    assert to_string(differentiate(parse("x1^2", 1, 0), 1)) == "2*x1"


def test_derivative_independence():
    assert to_string(differentiate(parse("x1^2", 2, 0), 2)) == "0"


def test_derivative_out_of_range():
    with pytest.raises(DimensionError):
        differentiate(parse("x1", 1, 0), 2)


def test_second_derivative_paper_hessian():
    e = parse("x1^4 - 2*x1^2", 1, 0)
    h = differentiate(differentiate(e, 1), 1)
    assert evaluate(h, Env((1.0,))) == 8.0
    assert evaluate(h, Env((0.0,))) == -4.0


def test_derivative_quotient_and_functions():
    e = parse("sin(x1)/x1", 1, 0)
    d = differentiate(e, 1)
    x = 0.7
    expected = (math.cos(x) * x - math.sin(x)) / x**2
    assert abs(evaluate(d, Env((x,))) - expected) < 1e-14


# --- random expression corpus -------------------------------------------------


def random_expression(rng: random.Random, n: int, k: int, depth: int = 0) -> str:
    """Source text of a random expression, kept safe for evaluation on
    points with coordinates in [-1.5, 1.5] and parameters in [-2, 2]."""
    atoms = [lambda: f"{rng.randint(1, 4)}", lambda: f"x{rng.randint(1, n)}"]
    if k:
        atoms.append(lambda: f"p{rng.randint(1, k)}")
    if depth >= 3:
        return rng.choice(atoms)()
    roll = rng.random()
    sub = lambda: random_expression(rng, n, k, depth + 1)
    if roll < 0.25:
        return rng.choice(atoms)()
    if roll < 0.45:
        return f"({sub()} + {sub()})"
    if roll < 0.6:
        return f"({sub()} - {sub()})"
    if roll < 0.75:
        return f"{sub()}*{sub()}"
    if roll < 0.82:
        return f"x{rng.randint(1, n)}^{rng.randint(2, 4)}"
    if roll < 0.88:
        return f"sin({sub()})"
    if roll < 0.93:
        return f"cos({sub()})"
    if roll < 0.97:
        return f"exp(x{rng.randint(1, n)})"
    return f"({sub()})/(x1^2 + 2)"


def test_print_parse_round_trip_structural():
    rng = random.Random(5)
    for _ in range(300):
        n, k = rng.randint(1, 3), rng.randint(0, 2)
        e = parse(random_expression(rng, n, k), n, k)
        assert parse(to_string(e), n, k) == e


def test_print_parse_round_trip_evaluates_identically():
    rng = random.Random(6)
    checked = 0
    while checked < 100:
        n, k = rng.randint(1, 3), rng.randint(0, 2)
        e = parse(random_expression(rng, n, k), n, k)
        e2 = parse(to_string(e), n, k)
        env = Env(
            tuple(rng.uniform(-1.5, 1.5) for _ in range(n)),
            tuple(rng.uniform(-2, 2) for _ in range(k)),
        )
        try:
            v1 = evaluate(e, env)
        except exprlang.EvalError:
            continue
        assert evaluate(e2, env) == v1
        checked += 1


def test_derivative_round_trips_identically():
    rng = random.Random(7)
    for _ in range(200):
        n, k = rng.randint(1, 3), rng.randint(0, 2)
        e = parse(random_expression(rng, n, k), n, k)
        for i in range(1, n + 1):
            d = differentiate(e, i)
            assert parse(to_string(d), n, k) == d


def _central_diff(e, env, i, h=1e-5):
    x = list(env.x)
    x[i - 1] += h
    up = evaluate(e, Env(tuple(x), env.p))
    x[i - 1] -= 2 * h
    down = evaluate(e, Env(tuple(x), env.p))
    return (up - down) / (2 * h)


def test_derivative_matches_finite_difference():
    rng = random.Random(8)
    checked = 0
    while checked < 50:
        n, k = rng.randint(1, 3), rng.randint(0, 1)
        e = parse(random_expression(rng, n, k), n, k)
        env = Env(
            tuple(rng.uniform(-1.5, 1.5) for _ in range(n)),
            tuple(rng.uniform(-2, 2) for _ in range(k)),
        )
        try:
            for i in range(1, n + 1):
                sym = evaluate(differentiate(e, i), env)
                fd = _central_diff(e, env, i)
                if max(abs(sym), abs(fd)) >= 1e-3:
                    assert abs(sym - fd) <= 1e-6 * max(abs(sym), abs(fd))
        except exprlang.EvalError:
            continue
        checked += 1


def test_mixed_partials_commute():
    rng = random.Random(9)
    checked = 0
    while checked < 60:
        n = 2
        e = parse(random_expression(rng, n, 0), n, 0)
        d12 = differentiate(differentiate(e, 1), 2)
        d21 = differentiate(differentiate(e, 2), 1)
        env = Env(tuple(rng.uniform(-1.5, 1.5) for _ in range(n)))
        try:
            v12 = evaluate(d12, env)
            v21 = evaluate(d21, env)
        except exprlang.EvalError:
            continue
        assert abs(v12 - v21) <= 1e-9 * max(1.0, abs(v12))
        checked += 1


def test_substitute_params_folds_literals():
    e = parse("p1*x1 + p2", 1, 2)
    s = exprlang.substitute_params(e, (2.0, 3.0))
    assert s.k == 0
    assert to_string(s) == "2*x1 + 3"
    assert evaluate(s, Env((1.0,))) == 5.0


def test_eval_batch_leaves_no_reference_cycle():
    # with the cyclic collector off, the input array must die on del: the
    # evaluation holds no cycle that keeps it (and its mask) alive
    e = parse("log(x1) + x2*p1 - 1/x2", 2, 1)
    X = np.array([[1.0, 2.0], [0.5, -1.0], [-1.0, 0.0]])
    ref = weakref.ref(X)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        values, valid = exprlang.eval_batch(e, X, (3.0,))
        assert valid.tolist() == [True, True, False]
        del X
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
