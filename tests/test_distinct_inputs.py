"""oracle and stationary compute once per distinct scenario input.

``reference_oracle`` and ``reference_stationary`` are the earlier command
bodies, which minimise or search every scenario from scratch.  On seeded
documents whose scenarios repeat parameter vectors and set descriptions
(within and across atoms, with 0.0 next to -0.0, per-scenario boxes equal
in value, point clouds listed in different orders, and objectives
undefined on a whole set) the reports must be byte-identical.  The count
tests pin the work: one grid-sized evaluation per distinct input, one
Newton run per distinct parameter vector (also across the atom
representatives of solve-rlop), one scan of a box's grid axes per distinct
input or atom with no grid matrix, no node of it evaluated twice and
every block left out excluded by an interval bound, no scalar gradient or
Hessian in stationary and one probe grid per solve-rlop.
"""

import json
import math
import random
import struct
from pathlib import Path

import numpy as np
import pytest

import randopt as r
from randopt import cli, exprlang, optimize, randfunc
from randopt.cli import EXIT_OK, _global_min_json, _point_json, _require
from randopt.document import load_problem
from randopt.optimize import find_stationary_points, global_min_compact
from scan_records import patch_everywhere, record_scans, scanned_grids

GALLERY = Path(__file__).resolve().parent.parent / "gallery"


def reference_stationary(doc):
    _require(doc.search_box is not None, "/search_box", "stationary needs a search_box")

    per_scenario = {}
    skipped = stalled = 0
    for omega in doc.space.scenarios:
        search = find_stationary_points(doc.rf, omega, doc.search_box, doc.options)
        skipped += search.skipped_singular
        stalled += search.stalled
        per_scenario[str(omega)] = [
            {
                "x": _point_json(sp.x),
                "grad_norm": float(sp.grad_norm),
                "minors": _point_json(sp.minors),
                "classification": sp.classification.value,
                "newton_iters": sp.newton_iters,
            }
            for sp in search.points
        ]
    diag = {"skipped_newton_starts": skipped, "stalled_newton_starts": stalled}
    return EXIT_OK, {"stationary_points": per_scenario}, diag


def reference_oracle(doc):
    if doc.feasible is not None:
        descs = doc.feasible.descriptions
    else:
        _require(
            doc.search_box is not None,
            "/feasible_set",
            "oracle needs a feasible_set or a search_box",
        )
        descs = {s: doc.search_box for s in doc.space.scenarios}

    eta = {}
    per = {}
    excluded = 0
    for omega in doc.space.scenarios:
        res = global_min_compact(doc.rf, omega, descs[omega], doc.options.grid_m)
        eta[str(omega)] = float(res.grid_value)
        per[str(omega)] = _global_min_json(res)
        excluded += res.excluded
    return (
        EXIT_OK,
        {"eta": eta, "per_scenario": per},
        {"excluded_grid_points": excluded},
    )


REFERENCES = {"oracle": reference_oracle, "stationary": reference_stationary}

# Each shows a signed zero in its reports: the grid value of a linear
# objective at its first grid point, the argmin on a box bound of 0.0 or
# -0.0, and the first leading minor 2*p1 of an indefinite Hessian.  The
# log objective is undefined on all of [-1, 1]^2 when p1 >= 2.
EXPRESSIONS = (
    "p1*x1 + p2*x2",
    "x1^2 + x2^2 + p1*x1 + p2*x2",
    "p1*x1^2 + x1*x2 + p2*x2",
    "log(x1 + 1 - p1) + p2*x2^2",
)
NUMBERS = (0.0, -0.0, 0.0, -0.0, 0.5, -1.0, 2.5)
# (lower, upper) of one box axis; a grid keeps the sign of a zero upper
# bound and of a degenerate axis, and loses that of a zero lower bound
AXES = ((-1.0, 1.0), (-1.0, 0.0), (-1.0, -0.0), (-0.0, 1.0), (0.0, 0.0), (-0.0, 0.0))
CLOUD = ([0.0, 0.5], [-0.0, 0.5], [0.5, -1.0], [-0.0, -0.0], [0.25, 0.0])


def _box(rng):
    x1, x2 = rng.choice(AXES), rng.choice(AXES)
    return {"lower": [x1[0], x2[0]], "upper": [x1[1], x2[1]]}


def _scenario_document(seed, feasible_kind):
    rng = random.Random(seed)
    n_scen = rng.randint(2, 9)
    order = list(range(1, n_scen + 1))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n_scen), rng.randint(0, min(3, n_scen - 1))))
    atoms = [sorted(order[a:b]) for a, b in zip([0] + cuts, cuts + [n_scen])]

    pool = [[rng.choice(NUMBERS), rng.choice(NUMBERS)] for _ in range(rng.randint(1, 4))]
    doc = {
        "schema_version": 1,
        "space": {
            "scenarios": list(range(1, n_scen + 1)),
            "weights": [1.0 / n_scen] * n_scen,
            "atoms": atoms,
        },
        "dimension": 2,
        "objective": {
            "expression": rng.choice(EXPRESSIONS),
            "parameters": {str(s): rng.choice(pool) for s in range(1, n_scen + 1)},
        },
        "search_box": _box(rng),
        "options": {"grid": rng.choice((5, 9)), "newton_grid": 3, "seed": 0},
    }
    if feasible_kind == "box":
        doc["feasible_set"] = {"kind": "box", **_box(rng)}
    elif feasible_kind == "per-scenario boxes":
        boxes = [_box(rng) for _ in range(rng.randint(1, 3))]
        doc["feasible_set"] = {
            "kind": "box",
            "per_scenario": {str(s): dict(rng.choice(boxes)) for s in range(1, n_scen + 1)},
        }
    elif feasible_kind == "point clouds":
        clouds = [rng.sample(CLOUD, rng.randint(1, len(CLOUD))) for _ in range(rng.randint(1, 2))]
        doc["feasible_set"] = {
            "kind": "point_cloud",
            "per_scenario": {
                str(s): {"points": rng.sample(cloud, len(cloud))}
                for s, cloud in ((s, rng.choice(clouds)) for s in range(1, n_scen + 1))
            },
        }
    return doc


def _report(tmp_path, monkeypatch, doc, command, body):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / f"{command}.{body.__name__}.json"
    monkeypatch.setitem(cli._DISPATCH, command, body)
    cli.run(command, load_problem(str(path)), str(out))
    return out.read_bytes()


def _parsed(report: bytes) -> dict:
    # reports write -0.0 as -0, which json reads as the integer 0
    return json.loads(report, parse_int=float)


def assert_same_report(tmp_path, monkeypatch, doc, command):
    new = _report(tmp_path, monkeypatch, doc, command, cli._DISPATCH[command])
    old = _report(tmp_path, monkeypatch, doc, command, REFERENCES[command])
    assert new == old


@pytest.mark.parametrize("feasible_kind", ["box", "per-scenario boxes", "point clouds", None])
@pytest.mark.parametrize("seed", range(12))
def test_oracle_matches_the_per_scenario_loop(tmp_path, monkeypatch, seed, feasible_kind):
    doc = _scenario_document(seed, feasible_kind)
    assert_same_report(tmp_path, monkeypatch, doc, "oracle")


@pytest.mark.parametrize("seed", range(24))
def test_stationary_matches_the_per_scenario_loop(tmp_path, monkeypatch, seed):
    doc = _scenario_document(seed, None)
    assert_same_report(tmp_path, monkeypatch, doc, "stationary")


def _fixed_document(expression, params, feasible=None, search_lower=(-1.0, -1.0)):
    n_scen = len(params)
    doc = {
        "schema_version": 1,
        "space": {
            "scenarios": list(range(1, n_scen + 1)),
            "weights": [1.0 / n_scen] * n_scen,
            "atoms": [[1, 2], list(range(3, n_scen + 1))],
        },
        "dimension": 2,
        "objective": {
            "expression": expression,
            "parameters": {str(s): p for s, p in enumerate(params, 1)},
        },
        "search_box": {"lower": list(search_lower), "upper": [1.0, 1.0]},
        "options": {"grid": 5, "newton_grid": 3, "seed": 0},
    }
    if feasible is not None:
        doc["feasible_set"] = feasible
    return doc


def test_signed_zero_parameters_stay_apart(tmp_path, monkeypatch):
    # 0.0 == -0.0, yet p1*x1 at x1 = -1 is -0.0 for one and 0.0 for the other
    doc = _fixed_document("p1*x1 + p2*x2", [[0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [-0.0, -0.0]])
    assert_same_report(tmp_path, monkeypatch, doc, "oracle")
    report = _parsed(_report(tmp_path, monkeypatch, doc, "oracle", cli._DISPATCH["oracle"]))
    assert [json.dumps(v) for v in report["results"]["eta"].values()] == ["-0.0", "0.0"] * 2

    doc = _fixed_document("p1*x1^2 + x1*x2 + p2*x2", [[0.0, 0.5], [-0.0, 0.5], [-0.0, 0.5]])
    assert_same_report(tmp_path, monkeypatch, doc, "stationary")


def test_signed_zero_box_bounds_stay_apart(tmp_path, monkeypatch):
    # the argmin sits on the upper bound of x1, reported as 0 or -0
    feasible = {
        "kind": "box",
        "per_scenario": {
            "1": {"lower": [-1.0, -1.0], "upper": [0.0, 1.0]},
            "2": {"lower": [-1.0, -1.0], "upper": [-0.0, 1.0]},
            "3": {"lower": [-1.0, -1.0], "upper": [0.0, 1.0]},
        },
    }
    doc = _fixed_document("x1^2 + x2^2 + p1*x1 + p2*x2", [[0.0, 0.0]] * 3, feasible)
    assert_same_report(tmp_path, monkeypatch, doc, "oracle")
    report = _parsed(_report(tmp_path, monkeypatch, doc, "oracle", cli._DISPATCH["oracle"]))
    firsts = [json.dumps(v["grid_x"][0]) for v in report["results"]["per_scenario"].values()]
    assert firsts == ["0.0", "-0.0", "0.0"]


def test_point_cloud_order_of_equal_points_is_kept(tmp_path, monkeypatch):
    # (0.0, 0.5) and (-0.0, 0.5) sort as equal, so listing order decides
    # which one the argmin reports
    feasible = {
        "kind": "point_cloud",
        "per_scenario": {
            "1": {"points": [[0.0, 0.5], [-0.0, 0.5]]},
            "2": {"points": [[-0.0, 0.5], [0.0, 0.5]]},
            "3": {"points": [[0.0, 0.5], [-0.0, 0.5]]},
        },
    }
    doc = _fixed_document("x1^2 + p1*x2", [[0.0, 1.0]] * 3, feasible)
    assert_same_report(tmp_path, monkeypatch, doc, "oracle")
    report = _parsed(_report(tmp_path, monkeypatch, doc, "oracle", cli._DISPATCH["oracle"]))
    firsts = [json.dumps(v["grid_x"][0]) for v in report["results"]["per_scenario"].values()]
    assert firsts == ["0.0", "-0.0", "0.0"]


def test_first_scenario_undefined_on_its_whole_set_is_named(tmp_path, monkeypatch):
    # scenarios 3 and 5 are undefined everywhere; 4 repeats 1, 5 repeats 3
    params = [[0.0, 1.0], [0.5, 1.0], [2.5, 1.0], [0.0, 1.0], [2.5, 1.0], [3.0, 1.0]]
    doc = _fixed_document("log(x1 + 1 - p1) + p2*x2^2", params)
    doc["feasible_set"] = {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    assert_same_report(tmp_path, monkeypatch, doc, "oracle")
    report = _parsed(_report(tmp_path, monkeypatch, doc, "oracle", cli._DISPATCH["oracle"]))
    assert report["error"] == {
        "type": "DomainViolation",
        "message": "objective undefined at every point of the set for scenario 3",
    }


# --- counts --------------------------------------------------------------------


def _bits(values):
    return tuple(struct.pack("<d", v) for v in values)


def _counted(monkeypatch, owner, name, record):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        record.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


PARAMS = ([0.0, 0.5], [-0.0, 0.5], [1.0, -1.0])
BOXES = (
    {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    {"lower": [-1.0, -0.0], "upper": [1.0, 1.0]},
    {"lower": [-1.0, 0.0], "upper": [1.0, 1.0]},
)


@pytest.mark.parametrize("seed", range(4))
def test_oracle_works_once_per_distinct_input(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    n_scen = 12
    params = [rng.choice(PARAMS) for _ in range(n_scen)]
    boxes = [rng.choice(BOXES) for _ in range(n_scen)]
    feasible = {"kind": "box", "per_scenario": {str(s): b for s, b in enumerate(boxes, 1)}}
    doc = _fixed_document("x1^2 + x2^2 + p1*x1 + p2*x2", params, feasible)
    doc["options"]["grid"] = 7

    firsts = []  # (params, box) in order of first appearance
    for p, b in zip(params, boxes):
        key = (_bits(p), _bits(b["lower"] + b["upper"]))
        if key not in firsts:
            firsts.append(key)

    evals, grids = [], []
    scans = record_scans(monkeypatch, 3, 1, 10)  # 3 x 3 coarse tiles per grid
    _counted_everywhere(monkeypatch, exprlang.eval_rows, evals)
    _counted_everywhere(monkeypatch, optimize.grid_points, grids)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.run("oracle", load_problem(str(path)), str(tmp_path / "out.json")) == 0
    # one scan of the 7 x 7 grid's axes per distinct input, in order and in
    # one call, no node evaluated twice, and no grid of points
    grids_scanned = scanned_grids(scans)
    assert [shape for shape, _ in grids_scanned] == [(7, 7)] * len(firsts)
    assert [_bits(p) for _, p in grids_scanned] == [p for p, _ in firsts]
    assert len({id(s.call) for s in scans}) == 1
    # each of a grid's 49 nodes is evaluated or in a tile the bound
    # excludes, and the bound excludes some
    left_out = [sum(math.prod(j - i for i, j in t) for t in s.skipped) for s in scans]
    assert [s.evaluated + n for s, n in zip(scans, left_out)] == [49] * len(firsts)
    assert any(left_out)
    assert evals == grids == []


def test_oracle_scans_each_distinct_input_once_in_one_call(tmp_path, monkeypatch):
    # scenarios 1-6 hold 4 distinct (parameter vector, box) pairs: -0.0
    # and 0.0 are apart, in a parameter and in a box's bound
    params = [PARAMS[i] for i in (0, 1, 0, 1, 2, 0)]
    boxes = [BOXES[i] for i in (0, 0, 0, 0, 1, 2)]
    feasible = {"kind": "box", "per_scenario": {str(s): b for s, b in enumerate(boxes, 1)}}
    doc = _fixed_document("x1^2 + x2^2 + p1*x1 + p2*x2", params, feasible)
    calls = []
    scan_min = optimize.scan_min

    def scanning(rf, inputs, grid_m, tol):
        calls.append([(omega, C) for omega, C in inputs])
        return scan_min(rf, inputs, grid_m, tol)

    patch_everywhere(monkeypatch, scan_min, scanning)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    loaded = load_problem(str(path))
    assert cli.run("oracle", loaded, str(tmp_path / "out.json")) == 0
    descs = loaded.feasible.descriptions
    assert calls == [[(omega, descs[omega]) for omega in (1, 2, 5, 6)]]


def test_stationary_searches_once_per_distinct_parameter_vector(tmp_path, monkeypatch):
    params = [PARAMS[i] for i in (0, 1, 0, 2, 1, 1, 0, 2, 2, 0)]
    doc = _fixed_document("x1^2 + x2^2 + p1*x1 + p2*x2", params)
    runs = []
    _counted(monkeypatch, optimize, "_newton", runs)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.run("stationary", load_problem(str(path)), str(tmp_path / "out.json")) == 0
    # one stack, whose parameter rows are those of scenarios 1, 2 and 4
    ((rf, X0, P),) = runs
    want = np.repeat(np.array([params[0], params[1], params[3]]), len(X0) // 3, axis=0)
    assert P.tobytes() == want.tobytes()


def test_atoms_whose_representatives_share_parameters_share_one_newton_run(monkeypatch):
    # representatives 1 and 3 share a parameter vector, and 4 has its own:
    # one Newton run each, and the selection and certificates of solving
    # every atom alone
    text = "((x1 - p1)^2 - 1)^2 + ((x2 - p2)^2 - 1)^2 + 0.25*x1*x2"
    space = r.make_space([1, 2, 3, 4], [0.25] * 4, [[1, 2], [3], [4]])
    params = {1: (0.3, -0.2), 2: (0.3, -0.2), 3: (0.3, -0.2), 4: (-0.5, 0.1)}
    rf = r.RandomFunction(space, 2, r.parse(text, 2, 2), params)
    box, opts = r.Box((-3.0, -3.0), (3.0, 3.0)), r.SolverOptions(newton_grid_m=5)
    runs = []
    _counted(monkeypatch, optimize, "_newton", runs)
    sel = r.solve_rlop(rf, space, box, opts)
    ((_, X0, P),) = runs
    assert len(X0) == 2 * 25
    assert P.tobytes() == np.repeat(np.array([params[1], params[4]]), 25, axis=0).tobytes()
    for atom in space.atoms:
        alone = r.make_space([atom[0]], [1.0], [[atom[0]]])
        rf_alone = r.RandomFunction(alone, 2, rf.body, {atom[0]: params[atom[0]]})
        want = r.solve_rlop(rf_alone, alone, box, opts)
        for omega in atom:
            assert repr(sel.points[omega]) == repr(want.points[atom[0]])
            assert repr(sel.certificates[omega]) == repr(want.certificates[atom[0]])


def _counted_everywhere(monkeypatch, function, record):
    """Count the calls of ``function`` through every randopt module that
    holds it under some name."""

    def counted(*args, **kwargs):
        record.append(args)
        return function(*args, **kwargs)

    patch_everywhere(monkeypatch, function, counted)


@pytest.mark.parametrize("document", ["quartic_double_well", "convex_quadratic_2d"])
def test_stationary_makes_no_scalar_derivative_call(tmp_path, monkeypatch, document):
    calls = []
    _counted_everywhere(monkeypatch, randfunc.gradient, calls)
    _counted_everywhere(monkeypatch, randfunc.hessian, calls)
    doc = load_problem(str(GALLERY / f"{document}.json"))
    assert cli.run("stationary", doc, str(tmp_path / "out.json")) == 0
    assert calls == []


@pytest.mark.parametrize("document", ["quartic_double_well", "convex_quadratic_2d"])
def test_solve_rlop_builds_one_probe_grid(tmp_path, monkeypatch, document):
    grids = []
    _counted_everywhere(monkeypatch, randfunc.default_probe_grid, grids)
    doc = load_problem(str(GALLERY / f"{document}.json"))
    assert len(doc.space.atoms) > 1
    assert cli.run("solve-rlop", doc, str(tmp_path / "out.json")) == 0
    assert len(grids) == 1


def test_solve_rop_scans_the_grid_axes_once_per_atom(monkeypatch):
    space = r.make_space(list(range(1, 7)), [1 / 6] * 6, [[1, 2], [3], [4], [5, 6]])
    body = r.parse("(x1 - p1)^2", 1, 1)
    params = {s: (i / 10,) for i, atom in enumerate(space.atoms) for s in atom}
    rf = r.RandomFunction(space, 1, body, params)
    a, b = r.Box((-1.0,), (1.0,)), r.Box((-0.0,), (1.0,))
    C = r.RandomSet(space, {1: a, 2: a, 3: r.Box((-1.0,), (1.0,)), 4: b, 5: a, 6: a})
    grids = []
    scans = record_scans(monkeypatch, 4, 4, 3)  # tiles of 4, 4 and 3 nodes
    _counted_everywhere(monkeypatch, optimize.grid_points, grids)
    r.solve_rop(rf, space, C, r.SolverOptions(grid_m=11))
    # the representatives 1, 3, 4 and 5, one 11-node axis each, in one
    # call; the tile holding p1 is evaluated and the bound excludes the
    # other two
    assert scanned_grids(scans) == [((11,), (i / 10,)) for i in range(4)]
    assert len({id(s.call) for s in scans}) == 1
    def indices(tiles):
        return [ranges[0][0] // 4 for ranges in tiles]

    assert [(indices(s.tiles), indices(s.skipped)) for s in scans] == [([1], [0, 2])] * 2 + [
        ([0], [1, 2]),
        ([1], [0, 2]),
    ]
    assert grids == []


def test_solve_rlop_scans_the_grid_axes_once_per_convex_atom(tmp_path, monkeypatch):
    # both atoms are convex, so each gets a global certificate after a scan
    # of the search box's axes; the atoms' Newton runs share one start grid
    grids = []
    scans = record_scans(monkeypatch, 40, 8, 1000)  # 2 x 2 coarse tiles per grid
    _counted_everywhere(monkeypatch, optimize.grid_points, grids)
    doc = load_problem(str(GALLERY / "convex_quadratic_2d.json"))
    assert cli.run("solve-rlop", doc, str(tmp_path / "out.json")) == 0
    assert [shape for shape, _ in scanned_grids(scans)] == [(61, 61)] * 2
    # x1*x2 widens the bound of a coarse tile below eta, but each grid's
    # fine tiles far from its minimum are excluded
    assert [s.evaluated for s in scans] == [1152, 1272]
    assert all(s.skipped for s in scans)
    assert [m for _, m in grids] == [5]  # the Newton start grid only


# --- one feasible set shared by every scenario --------------------------------

TOP_LEVEL_SETS = {
    "box": {"kind": "box", "lower": [-1.0, -0.5], "upper": [1.0, 0.5]},
    "point cloud": {"kind": "point_cloud", "points": [[0.0, 0.5], [-1.0, 0.25]]},
}
SHARED_PARAMS = [PARAMS[i] for i in (0, 1, 0, 2, 1, 1, 0, 2)]


def _load(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return load_problem(str(path))


@pytest.mark.parametrize("kind", sorted(TOP_LEVEL_SETS))
def test_a_top_level_set_is_one_object_for_every_scenario(tmp_path, kind):
    doc = _fixed_document("x1^2 + p1*x2 + p2", SHARED_PARAMS, TOP_LEVEL_SETS[kind])
    descs = _load(tmp_path, doc).feasible.descriptions
    first = descs[1]
    assert list(descs) == list(range(1, len(SHARED_PARAMS) + 1))
    assert all(d is first for d in descs.values())


@pytest.mark.parametrize("kind", ["per-scenario boxes", "per-scenario clouds", "level set"])
def test_per_scenario_and_level_sets_are_one_object_per_scenario(tmp_path, kind):
    entry = {
        "per-scenario boxes": TOP_LEVEL_SETS["box"],
        "per-scenario clouds": TOP_LEVEL_SETS["point cloud"],
    }.get(kind)
    if entry is None:
        box = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
        feasible = {"kind": "level_set", "expressions": ["x1 - p1"], "box": box}
    else:
        fields = {k: v for k, v in entry.items() if k != "kind"}
        per = {str(s): fields for s in range(1, len(SHARED_PARAMS) + 1)}
        feasible = {"kind": entry["kind"], "per_scenario": per}
    doc = _fixed_document("x1^2 + p1*x2 + p2", SHARED_PARAMS, feasible)
    loaded = _load(tmp_path, doc)
    descs = loaded.feasible.descriptions
    assert len({id(d) for d in descs.values()}) == len(SHARED_PARAMS)
    if entry is None:  # each level set holds its own scenario's parameters
        assert all(descs[s].params is loaded.rf.params_of(s) for s in descs)


def test_a_top_level_level_set_is_parsed_once(tmp_path, monkeypatch):
    # one parse per text: the objective and the two constraints, not the
    # constraints once per scenario
    parsed = []
    _counted(monkeypatch, exprlang, "parse", parsed)
    box = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    feasible = {"kind": "level_set", "expressions": ["x1 - p1", "x2 + p2"], "box": box}
    doc = _fixed_document("x1^2 + p1*x2 + p2", SHARED_PARAMS * 63, feasible)
    loaded = _load(tmp_path, doc)
    assert [text for text, *_ in parsed] == ["x1^2 + p1*x2 + p2", "x1 - p1", "x2 + p2"]
    first = loaded.feasible.descriptions[1]
    for s, desc in loaded.feasible.descriptions.items():
        assert (desc.constraints, desc.box) == (first.constraints, first.box)
        assert desc.constraints is first.constraints and desc.params is loaded.rf.params_of(s)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"lower": [1.0, 0.0], "upper": [0.0, 1.0]}, "box has lower 1.0 > upper 0.0"),
        ({"lower": [0.0], "upper": [1.0]}, "bounds must have length 2"),
        ({"lower": [0.0, 0.0]}, "box needs 'lower' and 'upper'"),
    ],
    ids=["inverted", "short", "no-upper"],
)
def test_a_bad_top_level_box_raises_at_the_feasible_set(tmp_path, fields, message):
    doc = _fixed_document("x1^2 + p1*x2 + p2", SHARED_PARAMS, {"kind": "box", **fields})
    with pytest.raises(r.SchemaError) as caught:
        _load(tmp_path, doc)
    assert (caught.value.pointer, str(caught.value)) == (
        "/feasible_set",
        f"/feasible_set: {message}",
    )


@pytest.mark.parametrize("kind", sorted(TOP_LEVEL_SETS))
def test_a_shared_set_runs_once_per_distinct_parameter_vector(tmp_path, kind):
    doc = _fixed_document("x1^2 + p1*x2 + p2", SHARED_PARAMS, TOP_LEVEL_SETS[kind])
    loaded = _load(tmp_path, doc)
    first = randfunc.first_of_input(loaded.rf, loaded.feasible.descriptions)
    # the first scenarios of PARAMS 0, 1 and 2, and each later one shares
    assert [omega for omega, f in first.items() if f == omega] == [1, 2, 4]
    assert first == {1: 1, 2: 2, 3: 1, 4: 4, 5: 2, 6: 2, 7: 1, 8: 4}
