"""Byte-for-byte golden outputs.

``gsiplab run`` must print exactly the stored CSV and JSON traces for both
builtin problems under every variant, and for ``llp_infeasible.gsip``, whose
lower-level program is infeasible at the first iterate, under the two variants
that solve it; ``gsiplab fmt`` must print exactly the stored canonical form of
``fmt_input.gsip``, a CRLF file that uses every line kind; ``gsiplab verify``
must print exactly the stored report for that canonical form, whose inner set
is 2-D, so its grid oracle runs on 401 x 401 grids, and for both builtin
problems under every variant at the default grid and iteration count; and the
branch-and-bound solves of the oracle-agreement suite must return the stored
outcomes (the latter are asserted in ``test_globalopt.TestOracleAgreement``).

The goldens are written by ``python tests/test_golden.py --regenerate``.
Regenerate them only for a change that is meant to alter solver output, and
say so in CHANGES.md.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")
ORACLE_OUTCOMES = GOLDEN / "oracle50_outcomes.json"
ORACLE_GRID_OUTCOMES = GOLDEN / "oracle50_grid_outcomes.json"
ORACLE_TOL_OPT = 1e-3
ORACLE_NODE_BUDGET = 400_000
ORACLE_GRID_N = 401

PROBLEMS = ("cex1", "cex2")
VARIANTS = ("llp-only", "aux-llp", "sip-llp")
FORMATS = ("csv", "json")
CASES = [(p, v, f) for p in PROBLEMS for v in VARIANTS for f in FORMATS]
# the only trace rows with ``llp_y=infeasible`` / ``"infeasible": true``
INFEASIBLE_LLP_FILE = GOLDEN / "llp_infeasible.gsip"
INFEASIBLE_LLP_CASES = [(INFEASIBLE_LLP_FILE.stem, v, f)
                        for v in ("llp-only", "aux-llp") for f in FORMATS]
VERIFY_CASES = [(p, v) for p in PROBLEMS for v in VARIANTS]
FMT_INPUT = GOLDEN / "fmt_input.gsip"
FMT_OUTPUT = GOLDEN / "fmt_output.gsip"
VERIFY_OUTPUT = GOLDEN / "verify_fmt_output.txt"


def golden_path(problem: str, variant: str, fmt: str) -> Path:
    return GOLDEN / f"run_{problem}_{variant}.{fmt}"


def verify_golden_path(problem: str, variant: str) -> Path:
    return GOLDEN / f"verify_{problem}_{variant}.txt"


def verify_stdout(problem: str, variant: str) -> str:
    """What ``gsiplab verify`` prints for a builtin problem at the defaults
    (``--grid 401``, ``--max-iter 10``)."""
    return cli_stdout(["verify", "--problem", problem, "--variant", variant])


def cli_stdout(argv) -> str:
    """Everything ``gsiplab`` prints on stdout for a successful command."""
    # gsiplab is imported late so that the script can set sys.path first
    from gsiplab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def run_stdout(problem: str, variant: str, fmt: str) -> str:
    """What ``gsiplab run`` prints, the trace and then the status line, for
    a builtin problem or for the golden file ``<problem>.gsip``."""
    source = (["--problem", problem] if problem in PROBLEMS
              else ["--file", str(GOLDEN / f"{problem}.gsip")])
    return cli_stdout(["run", *source, "--variant", variant, "--format", fmt])


def outcome_record(out) -> dict:
    """A MinimizeOutcome as JSON; floats round-trip exactly through repr."""
    return {
        "status": out.status,
        "minimizer": (None if out.minimizer is None
                      else [[n, v] for n, v in out.minimizer.items()]),
        "value": out.value,
        "value_bounds": (None if out.value_bounds is None
                         else [out.value_bounds.lo, out.value_bounds.hi]),
    }


def load_oracle_outcomes(path: Path = ORACLE_OUTCOMES) -> list:
    """The stored outcomes of the oracle suite's solves, seed by seed: the
    branch-and-bound ones by default, the grid oracle's from
    ``ORACLE_GRID_OUTCOMES``."""
    from gsiplab.expr import Interval
    from gsiplab.globalopt import MinimizeOutcome

    outcomes = []
    for rec in json.loads(path.read_text(encoding="utf-8")):
        bounds = rec["value_bounds"]
        outcomes.append(MinimizeOutcome(
            rec["status"],
            None if rec["minimizer"] is None else dict(rec["minimizer"]),
            rec["value"],
            None if bounds is None else Interval(*bounds)))
    return outcomes


@pytest.mark.parametrize("problem,variant,fmt", CASES + INFEASIBLE_LLP_CASES)
def test_run_output_matches_golden(problem, variant, fmt):
    expected = golden_path(problem, variant, fmt).read_text(encoding="utf-8")
    assert run_stdout(problem, variant, fmt) == expected


def test_fmt_output_matches_golden():
    # the input must keep its CRLF line ends for the test to cover them
    assert FMT_INPUT.read_bytes().count(b"\r\n") > 10
    expected = FMT_OUTPUT.read_text(encoding="utf-8")
    assert cli_stdout(["fmt", str(FMT_INPUT)]) == expected


def test_verify_output_matches_golden():
    expected = VERIFY_OUTPUT.read_text(encoding="utf-8")
    assert cli_stdout(["verify", "--file", str(FMT_OUTPUT)]) == expected


@pytest.mark.parametrize("problem,variant", VERIFY_CASES)
def test_builtin_verify_output_matches_golden(problem, variant):
    expected = verify_golden_path(problem, variant).read_text(encoding="utf-8")
    assert verify_stdout(problem, variant) == expected


def test_oracle_outcomes_round_trip():
    # the stored records must decode to outcomes that encode back identically
    for path in (ORACLE_OUTCOMES, ORACLE_GRID_OUTCOMES):
        records = json.loads(path.read_text(encoding="utf-8"))
        assert len(records) == 50
        assert [outcome_record(o) for o in load_oracle_outcomes(path)] == records


def _regenerate():
    from conftest import random_poly_instance
    from gsiplab.globalopt import minimize
    from gsiplab.grid import grid_minimize

    for problem, variant, fmt in CASES + INFEASIBLE_LLP_CASES:
        golden_path(problem, variant, fmt).write_text(
            run_stdout(problem, variant, fmt), encoding="utf-8")
    FMT_OUTPUT.write_text(cli_stdout(["fmt", str(FMT_INPUT)]), encoding="utf-8")
    VERIFY_OUTPUT.write_text(cli_stdout(["verify", "--file", str(FMT_OUTPUT)]),
                             encoding="utf-8")
    for problem, variant in VERIFY_CASES:
        verify_golden_path(problem, variant).write_text(
            verify_stdout(problem, variant), encoding="utf-8")
    records, grid_records = [], []
    for seed in range(50):
        obj, cons, box = random_poly_instance(seed)
        records.append(outcome_record(minimize(
            obj, cons, box, tol_opt=ORACLE_TOL_OPT,
            node_budget=ORACLE_NODE_BUDGET)))
        grid_records.append(outcome_record(grid_minimize(
            obj, cons, box, ORACLE_GRID_N)))
    for path, recs in ((ORACLE_OUTCOMES, records),
                       (ORACLE_GRID_OUTCOMES, grid_records)):
        path.write_text(
            "[\n" + ",\n".join(json.dumps(r) for r in recs) + "\n]\n",
            encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    root = Path(__file__).resolve().parent
    sys.path[:0] = [str(root), str(root.parent / "src")]
    _regenerate()
