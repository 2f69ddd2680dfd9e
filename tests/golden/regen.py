"""Regenerate the golden reports in this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Every report in CORPUS is rewritten from the current code, as
``<document stem>.<command>.json``.  ``tests/test_golden.py`` compares
fresh runs with these files byte for byte, so regenerate only when a
report is meant to change, and list each rewritten file in CHANGES.md
with the reason.
"""

from __future__ import annotations

import sys
from pathlib import Path

from randopt.cli import run
from randopt.document import load_problem

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GALLERY = ROOT / "gallery"
DOCUMENTS = HERE / "documents"

# (problem document, command): the criterion-9 corpus of acceptance test 9,
# oracle and stationary on gallery documents whose scenarios share inputs
# (and one, shifted_parabola_refusal, whose scenarios share none), three
# documents the schema accepts that a command cannot evaluate, then two
# whose witness gap is infinite and so left out of the report, then the
# batch mask rules (grid points excluded by the log domain and by a zero
# denominator, and the first undefined probe), a solve-rlop with no
# stationary point, and then the three Hessian commands on a Hessian of
# 1e308, whose entry doubled overflows, and on one of 2e160, whose second
# minor overflows and is left out of the stationary report, then a
# necessary check of a Hessian of -1.7e308 whose row sums overflow, and
# a zero minimum whose first grid node gives -0, a box whose span passes
# the largest double, a box whose bound sum passes it, so that its center
# is a probe, a parameter whose square C's pow() misrounds, where the
# certificate value and eta must agree, the same with exp(p1), and last a
# necessary check whose first failing scenario fails in its Hessian while
# a later one fails in its gradient, so the first scenario's error is the
# one reported, and a solve-rlop whose ball sample leaves the log's domain,
# whose message carries the sample's value, and last solve-rop and oracle
# on a 401 x 401 box grid of many scan blocks, with a zero denominator at
# the grid nodes x1 = 2.5, in a block far from every minimum; then the
# three Hessian commands on a 3-D sum of double wells of two atoms, each
# with 27 stationary points (8 PD, 18 indefinite, 1 ND), where the 3x3
# minors are taken in closed form, and a necessary check in 4-D, where
# the fourth minor is LAPACK's determinant
CORPUS = [
    (GALLERY / "quartic_double_well.json", "solve-rlop"),
    (GALLERY / "quartic_double_well.json", "solve-rop"),
    (GALLERY / "quartic_double_well.json", "oracle"),
    (GALLERY / "quartic_double_well.json", "stationary"),
    (GALLERY / "shifted_parabola_refusal.json", "solve-rop"),
    (GALLERY / "shifted_parabola_refusal.json", "check-measurable"),
    (GALLERY / "convex_quadratic_2d.json", "solve-rlop"),
    (GALLERY / "convex_quadratic_2d.json", "oracle"),
    (GALLERY / "convex_quadratic_2d.json", "stationary"),
    (GALLERY / "flip_candidate.json", "necessary"),
    (GALLERY / "cubic_inflection.json", "solve-rlop"),
    (GALLERY / "point_cloud_rop.json", "solve-rop"),
    (GALLERY / "point_cloud_rop.json", "oracle"),
    (GALLERY / "shifted_parabola_refusal.json", "oracle"),
    (DOCUMENTS / "log_objective.json", "solve-rlop"),
    (DOCUMENTS / "level_set_feasible.json", "solve-rop"),
    (DOCUMENTS / "reciprocal_candidate.json", "necessary"),
    (DOCUMENTS / "overflowing_candidate.json", "check-measurable"),
    (DOCUMENTS / "level_set_shapes.json", "check-measurable"),
    (DOCUMENTS / "level_set_shapes.json", "solve-rop"),
    (DOCUMENTS / "log_objective.json", "oracle"),
    (DOCUMENTS / "reciprocal_candidate.json", "oracle"),
    (DOCUMENTS / "reciprocal_candidate.json", "check-measurable"),
    (DOCUMENTS / "linear_objective.json", "solve-rlop"),
    (DOCUMENTS / "huge_curvature.json", "stationary"),
    (DOCUMENTS / "huge_curvature.json", "solve-rlop"),
    (DOCUMENTS / "huge_curvature.json", "necessary"),
    (DOCUMENTS / "overflowing_minors.json", "stationary"),
    (DOCUMENTS / "overflowing_minors.json", "solve-rlop"),
    (DOCUMENTS / "overflowing_minors.json", "necessary"),
    (DOCUMENTS / "overflowing_norm.json", "necessary"),
    (DOCUMENTS / "signed_zero_minimum.json", "solve-rop"),
    (DOCUMENTS / "signed_zero_minimum.json", "oracle"),
    (DOCUMENTS / "overflowing_span.json", "oracle"),
    (DOCUMENTS / "overflowing_center.json", "check-measurable"),
    (DOCUMENTS / "overflowing_center.json", "solve-rop"),
    (DOCUMENTS / "square_rounding.json", "solve-rlop"),
    (DOCUMENTS / "square_rounding.json", "oracle"),
    (DOCUMENTS / "exp_rounding.json", "solve-rlop"),
    (DOCUMENTS / "exp_rounding.json", "oracle"),
    (DOCUMENTS / "error_precedence.json", "necessary"),
    (DOCUMENTS / "float_message.json", "solve-rlop"),
    (DOCUMENTS / "far_pole.json", "solve-rop"),
    (DOCUMENTS / "far_pole.json", "oracle"),
    (DOCUMENTS / "wells_3d.json", "stationary"),
    (DOCUMENTS / "wells_3d.json", "necessary"),
    (DOCUMENTS / "wells_3d.json", "solve-rlop"),
    (DOCUMENTS / "wells_4d.json", "necessary"),
]


def golden_path(document: Path, command: str) -> Path:
    return HERE / f"{document.stem}.{command}.json"


def write_report(document: Path, command: str, output: Path) -> int:
    """Run ``command`` on ``document`` and write its report to ``output``."""
    return run(command, load_problem(str(document)), str(output))


def main() -> int:
    for document, command in CORPUS:
        path = golden_path(document, command)
        code = write_report(document, command, path)
        print(f"{path.relative_to(ROOT)}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
