"""Correctness gate: which operations of a run failed.

An operation is one table cell or one fit run. Each check returns one
message per failed operation, so ``failed_frac`` is the number of messages
over the operations attempted.

A table cell fails when its note is non-empty, when any of its numbers is
not finite, when an unbiased estimator's mean bias exceeds ``BIAS_Z`` of its
standard errors in either component, or when its numbers differ from the
reference table. Every table output of a run, at any thread count and in
any format, must hold the same numbers: the library promises bit-identical
results across runs and thread counts.

A full-length fit run fails unless its final (mu, sigma2) lies within
``FIT_TOL`` of the target's (1, 3) and every KL on its trajectory is finite.
A shorter fit with the same seed follows the same trajectory, so it fails
unless every KL is finite and its lines are the first lines of the full
fit's output.
"""

from __future__ import annotations

import csv
import io
import json
import math

BIAS_Z = 5.0
FIT_TARGET = (1.0, 3.0)
FIT_TOL = 1e-6  # acceptance criterion 7

CSV_FIELDS = ("mu", "sigma2", "mse", "mse_stderr", "bias1", "bias2", "gt1", "gt2", "replications")


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _z(bias: float, se: float) -> float:
    if se > 0:
        return abs(bias) / se
    return 0.0 if bias == 0 else math.inf


def _cell_name(cell) -> str:
    return f"{cell[0]} at mu={cell[1]:g}, sigma2={cell[2]:g}"


def table_cells_from_json(text: str) -> tuple[list[tuple], list[tuple]]:
    """The cells of a ``--format json`` table as (estimator, *CSV_FIELDS) tuples,
    and per cell the fields only JSON carries: (note, mean_se, mse_components)."""
    rows = json.loads(text)["rows"]
    cells = [
        (r["estimator"], float(r["mu"]), float(r["sigma2"]), float(r["mse"]), float(r["mse_stderr"]),
         float(r["mean_bias"][0]), float(r["mean_bias"][1]),
         float(r["ground_truth"][0]), float(r["ground_truth"][1]), float(r["replications"]))
        for r in rows
    ]
    extras = [
        (str(r["note"]), (float(r["mean_se"][0]), float(r["mean_se"][1])),
         (float(r["mse_components"][0]), float(r["mse_components"][1])))
        for r in rows
    ]
    return cells, extras


def table_cells_from_csv(text: str) -> list[tuple]:
    return [
        (r["estimator"], *(float(r[f]) for f in CSV_FIELDS))
        for r in csv.DictReader(io.StringIO(text))
    ]


def check_table_json(text: str, unbiased_ids, expected: int) -> tuple[list[tuple], list[str]]:
    """Check a JSON table on its own; returns its cells (the run's reference) and failures."""
    try:
        cells, extras = table_cells_from_json(text)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return [], [f"unreadable JSON table: {err}"] * expected
    failures = [f"missing cell {i}" for i in range(len(cells), expected)]
    for cell, (note, mean_se, mse_components) in zip(cells, extras):
        problem = None
        if note:
            problem = f"note {note!r}"
        elif not all(math.isfinite(v) for v in (*cell[1:], *mean_se, *mse_components)):
            problem = "non-finite field"
        elif cell[0] in unbiased_ids:
            z = max(_z(cell[5], mean_se[0]), _z(cell[6], mean_se[1]))
            if not z <= BIAS_Z:
                problem = f"bias of {z:.3g} standard errors in an unbiased estimator"
        if problem:
            failures.append(f"{_cell_name(cell)}: {problem}")
    return cells, failures


def check_table_csv(text: str, reference: list[tuple], expected: int) -> list[str]:
    """Check a CSV table against the run's reference cells."""
    try:
        cells = table_cells_from_csv(text)
    except (ValueError, KeyError, TypeError, csv.Error) as err:
        return [f"unreadable CSV table: {err}"] * expected
    failures = [f"missing cell {i}" for i in range(len(cells), expected)]
    for i, cell in enumerate(cells[:expected]):
        if not all(math.isfinite(v) for v in cell[1:]):
            failures.append(f"{_cell_name(cell)}: non-finite field")
        elif i >= len(reference) or cell[0] != reference[i][0] or not all(
                _same(a, b) for a, b in zip(cell[1:], reference[i][1:])):
            failures.append(f"{_cell_name(cell)}: differs from the reference table")
    return failures


def _fit_kls(text: str) -> tuple[list[dict], list[str]]:
    """The trajectory's rows, and a failure if it is unreadable or has a non-finite KL."""
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        kls = [float(r["kl"]) for r in rows]
    except (ValueError, KeyError, TypeError, csv.Error) as err:
        return [], [f"unreadable fit trajectory: {err}"]
    if not rows:
        return [], ["empty fit trajectory"]
    if not all(math.isfinite(kl) for kl in kls):
        return rows, ["non-finite KL on the trajectory"]
    return rows, []


def check_fit_csv(text: str) -> list[str]:
    """Check one full-length fit trajectory."""
    rows, failures = _fit_kls(text)
    if failures:
        return failures
    try:
        final_mu, final_s2 = float(rows[-1]["mu"]), float(rows[-1]["sigma2"])
    except (ValueError, TypeError) as err:
        return [f"unreadable fit trajectory: {err}"]
    errs = (abs(final_mu - FIT_TARGET[0]), abs(final_s2 - FIT_TARGET[1]))
    if not all(err <= FIT_TOL for err in errs):  # written so that NaN fails
        return [f"final (mu, sigma2) = ({final_mu!r}, {final_s2!r}) is not within {FIT_TOL} of {FIT_TARGET}"]
    return []


def check_fit_prefix(text: str, full: str | None) -> list[str]:
    """Check a shorter fit against the full-length fit ``full`` of the same seed."""
    _, failures = _fit_kls(text)
    if failures:
        return failures
    if full is None:
        return ["no full-length fit to compare with"]
    lines = text.splitlines()
    if lines != full.splitlines()[:len(lines)]:
        return ["trajectory is not the start of the full-length fit's"]
    return []
