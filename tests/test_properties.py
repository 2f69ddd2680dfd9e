"""Property-based tests for the structural invariants.

Expressions are generated as source text, so every tree is one the parser
itself can produce; probability spaces are generated as random partitions
of small scenario sets.
"""

import math

from hypothesis import given, settings, strategies as st

import randopt as r
from randopt.errors import EvalError
from randopt.exprlang import Env, differentiate, evaluate, parse, to_string

N_VARS = 2
N_PARAMS = 1


@st.composite
def expr_text(draw, depth=0):
    if depth >= 3:
        return draw(
            st.sampled_from(
                ["1", "2", "0.5", "3", "x1", "x2", "p1"]
            )
        )
    kind = draw(st.integers(0, 8))
    sub = lambda: draw(expr_text(depth=depth + 1))
    if kind == 0:
        return draw(st.sampled_from(["1", "2", "0.5", "x1", "x2", "p1"]))
    if kind == 1:
        return f"({sub()} + {sub()})"
    if kind == 2:
        return f"({sub()} - {sub()})"
    if kind == 3:
        return f"{sub()}*{sub()}"
    if kind == 4:
        return f"({sub()})/({sub()} + 3)"
    if kind == 5:
        return f"-{sub()}"
    if kind == 6:
        exp = draw(st.integers(2, 4))
        return f"x{draw(st.integers(1, N_VARS))}^{exp}"
    if kind == 7:
        return f"sin({sub()})"
    return f"cos({sub()})"


points = st.tuples(
    st.floats(-1.5, 1.5, allow_nan=False), st.floats(-1.5, 1.5, allow_nan=False)
)
params = st.tuples(st.floats(-2.0, 2.0, allow_nan=False))


@settings(max_examples=80, deadline=None)
@given(expr_text())
def test_print_parse_round_trip(text):
    e = parse(text, N_VARS, N_PARAMS)
    assert parse(to_string(e), N_VARS, N_PARAMS) == e


@settings(max_examples=80, deadline=None)
@given(expr_text(), points, params)
def test_round_trip_evaluates_identically(text, x, p):
    e = parse(text, N_VARS, N_PARAMS)
    e2 = parse(to_string(e), N_VARS, N_PARAMS)
    env = Env(x, p)
    try:
        v = evaluate(e, env)
    except EvalError:
        return
    assert evaluate(e2, env) == v


@settings(max_examples=60, deadline=None)
@given(expr_text(), points, params)
def test_derivative_is_linear(text, x, p):
    e = parse(text, N_VARS, N_PARAMS)
    doubled = parse(f"({text}) + ({text})", N_VARS, N_PARAMS)
    env = Env(x, p)
    try:
        v1 = evaluate(differentiate(e, 1), env)
        v2 = evaluate(differentiate(doubled, 1), env)
    except EvalError:
        return
    assert math.isclose(v2, 2 * v1, rel_tol=1e-12, abs_tol=1e-12)


@st.composite
def space_and_values(draw):
    n_scen = draw(st.integers(2, 6))
    ids = list(range(1, n_scen + 1))
    labels = [draw(st.integers(0, 2)) for _ in ids]
    blocks = {}
    for s, lab in zip(ids, labels):
        blocks.setdefault(lab, []).append(s)
    space = r.make_space(ids, [1.0 / n_scen] * n_scen, list(blocks.values()))
    values = {s: (float(draw(st.integers(0, 3))),) for s in ids}
    return space, values


@settings(max_examples=80, deadline=None)
@given(space_and_values())
def test_atom_constant_maps_are_measurable(sv):
    space, _ = sv
    values = {}
    for i, atom in enumerate(space.atoms):
        for s in atom:
            values[s] = (float(i),)
    xi = r.RandomVariableRn(space, values)
    assert r.is_measurable_rv(space, xi, tol=0.0).measurable


@settings(max_examples=80, deadline=None)
@given(space_and_values(), st.randoms(use_true_random=False))
def test_refinement_never_breaks_measurability(sv, rng):
    space, values = sv
    xi = r.RandomVariableRn(space, values)
    if not r.is_measurable_rv(space, xi).measurable:
        return
    refined = []
    for atom in space.atoms:
        if len(atom) > 1 and rng.random() < 0.7:
            cut = rng.randrange(1, len(atom))
            refined.extend([list(atom[:cut]), list(atom[cut:])])
        else:
            refined.append(list(atom))
    fine = r.make_space(space.scenarios, space.weights, refined)
    assert r.is_measurable_rv(fine, r.RandomVariableRn(fine, values)).measurable


@settings(max_examples=60, deadline=None)
@given(space_and_values())
def test_powerset_makes_everything_measurable(sv):
    space, values = sv
    powerset = r.make_space(
        space.scenarios, space.weights, [[s] for s in space.scenarios]
    )
    xi = r.RandomVariableRn(powerset, values)
    assert r.is_measurable_rv(powerset, xi).measurable
