import gc
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randopt import exprlang
from randopt.errors import DimensionError, DivByZero, DomainViolation, EvalError, ParseError
from randopt.exprlang import Env, differentiate, eval_batch, evaluate, parse


# --- parsing ----------------------------------------------------------------


def test_parse_paper_example():
    e = parse("x1^4 - 2*x1^2", 1, 0)
    x1 = exprlang.Var(1)
    assert e.root == exprlang.Sub(
        exprlang.Pow(x1, 4), exprlang.Mul(exprlang.Num(2.0), exprlang.Pow(x1, 2))
    )


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


# the largest integer that float() rounds down to the largest double
LARGEST_FINITE_INT = 2**1024 - 2**970 - 1


@pytest.mark.parametrize(
    "text,offset",
    [
        ("x1 - 1e400", 5),
        ("-1e400*x1", 1),
        ("x1 + 1.7976931348623159e308", 5),
        ("x1^1" + "0" * 400, 3),
        ("x1^-1" + "0" * 400, 4),
        ("x1^" + str(LARGEST_FINITE_INT + 1), 3),
        ("2*x1^1" + "0" * 5000, 5),  # past int()'s 4300-digit limit
    ],
    ids=["literal", "negated-literal", "literal-rounding-to-inf", "exponent",
         "negative-exponent", "exponent-rounding-to-inf", "exponent-over-digit-limit"],
)
def test_a_number_that_overflows_a_float_is_a_parse_error(text, offset):
    with pytest.raises(ParseError, match="overflows a float") as exc:
        parse(text, 1, 0)
    assert exc.value.offset == offset


def test_the_largest_finite_numbers_parse_exactly():
    assert parse("1.7976931348623157e308", 1, 0).root == exprlang.Num(1.7976931348623157e308)
    assert parse("1e-400", 1, 0).root == exprlang.Num(0.0)  # underflow is finite
    assert parse("x1^" + str(LARGEST_FINITE_INT), 1, 0).root.exponent == LARGEST_FINITE_INT
    assert parse("x1^-" + "0" * 5000 + "3", 1, 0).root.exponent == -3


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**1100) | st.integers(0, 2**40).map(lambda d: 2**1024 - 2**970 - 2**20 + d))
def test_an_exponent_parses_exactly_where_float_can_hold_it(k):
    try:
        float(k)
    except OverflowError:
        with pytest.raises(ParseError):
            parse(f"x1^{k}", 1, 0)
    else:
        assert parse(f"x1^{k}", 1, 0).root.exponent == k


def test_a_constant_power_that_overflows_is_kept_unfolded():
    # numpy's power gives inf there, and the product of a square too
    d = differentiate(parse("10^400 + x1^2", 1, 0), 1)
    assert evaluate(d, Env((3.0,))) == 6.0
    d = differentiate(parse("10^400*x1", 1, 0), 1)
    with pytest.raises(EvalError):
        evaluate(d, Env((3.0,)))
    assert exprlang.pow_(exprlang.Num(1e-300), -2) == exprlang.Pow(exprlang.Num(1e-300), -2)



def test_a_constant_power_folds_with_the_evaluators_bits():
    # numpy's power and the C library's pow() give this cube different last
    # bits on some hosts; the fold must have eval_batch's, which numpy's are
    base = 0.16740182621363697
    cube = eval_batch(parse("x1^3", 1), np.array([[base]]))[0][0]
    e = exprlang.substitute_params(parse("p1^3 + x1", 1, 1), (base,))
    assert e.root == exprlang.Add(exprlang.Num(float(cube)), exprlang.Var(1))
    assert evaluate(parse("x1^3", 1), Env((base,))) == cube

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
    assert d == parse("4*x1^3 - 4*x1", 1, 0)
    # vanishes at the three stationary points of the double well
    for x in (-1.0, 0.0, 1.0):
        assert evaluate(d, Env((x,))) == 0.0


def test_derivative_power_rule():
    assert differentiate(parse("x1^2", 1, 0), 1) == parse("2*x1", 1, 0)


def test_derivative_independence():
    assert differentiate(parse("x1^2", 2, 0), 2) == parse("0", 2, 0)


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
        except EvalError:
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
        except EvalError:
            continue
        assert abs(v12 - v21) <= 1e-9 * max(1.0, abs(v12))
        checked += 1


def test_substitute_params_folds_literals():
    e = parse("p1*x1 + p2", 1, 2)
    s = exprlang.substitute_params(e, (2.0, 3.0))
    assert s.k == 0
    assert s == parse("2*x1 + 3", 1, 0)
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
