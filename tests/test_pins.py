"""Pinned outputs: every command's output on a compact set of runs, stored under tests/data/pins.

A change that moves a number on purpose regenerates the pins, and records
the change in CHANGES.md:

    PYTHONPATH=src python tests/test_pins.py

The set runs through cli.main in one process, each table at 1 and at 2
threads against the same pin. On the build that made the pins (build.json:
numpy's version and the SIMD extensions np.show_runtime() finds, which
choose numpy's float64 loops) the outputs must equal the pins byte for
byte. On any other build the byte test skips, saying which build ran, and
only the number test runs: the same text and structure, with each number
within the rounding error another build may put in it (_allowed).
"""

import ast
import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gradcv.cli import main
from gradcv.estimators import ESTIMATOR_IDS

PINS_DIR = Path(__file__).parent / "data" / "pins"

# pin file -> the gradcv argv that writes it; a benchmark runs at each of TABLE_THREADS
PINS = {
    "benchmark-600.csv": ["benchmark", "--reps", "600", "--format", "csv"],
    "benchmark-600-paired.json": ["benchmark", "--reps", "600", "--paired", "--format", "json"],
    "benchmark-600-samples4-split0.5.csv": [
        "benchmark", "--reps", "600", "--samples", "4", "--split", "0.5", "--format", "csv",
    ],
    "fit-500-natural-gradient.csv": ["fit", "--iterations", "500", "--natural-gradient"],
    "ground-truth.json": ["ground-truth", "--format", "json"],
    **{f"estimate-{e}.json": ["estimate", "--estimator", e, "--format", "json"] for e in ESTIMATOR_IDS},
    "selftest.txt": ["selftest"],
}
TABLE_THREADS = (1, 2)
# run id -> (pin file, argv)
RUNS = {
    **{f"{name}/threads={threads}": (name, [*argv, "--threads", str(threads)])
       for name, argv in PINS.items() if argv[0] == "benchmark" for threads in TABLE_THREADS},
    **{name: (name, argv) for name, argv in PINS.items() if argv[0] != "benchmark"},
}

# The largest rounding error, relative to its scale (_allowed), that another
# build may put in a number: about 10x the largest move measured with numpy's
# AVX2 loops in place of its AVX-512 ones (NPY_DISABLE_CPU_FEATURES="AVX512_SPR
# AVX512_ICL X86_V4" on an X86_V4 host, numpy 2.4.6). That move, 1.1e-12, is in
# the --samples 4 table, whose two-draw regressions amplify rounding; the
# 50-draw tables moved at most 15 ulp (2.1e-15 relative).
REL = 1e-11


def _build() -> dict:
    """numpy's version and the SIMD extensions that np.show_runtime() finds on this machine."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        np.show_runtime()
    found = re.search(r"'found': (\[[^\]]*\])", text.getvalue())
    return {"numpy": np.__version__, "simd_found": ast.literal_eval(found.group(1)) if found else None}


def _run(argv: list[str], out: Path) -> bytes:
    assert main([*argv, "--out", str(out)]) == 0, argv
    return out.read_bytes()


def _value(cell: str):
    """A CSV cell as the int or float it writes, else as the str it is."""
    for parse in (int, float):
        try:
            return parse(cell)
        except ValueError:
            pass
    return cell


def _tree(name: str, text: str):
    """An output parsed: a JSON document, a CSV's rows or the self-test's lines.

    A CSV row is a dict keyed by the header (a list if its length differs);
    a self-test line is a dict of its check, worst deviation and tolerance.
    """
    if name.endswith(".json"):
        return json.loads(text)
    lines = text.splitlines()
    if name.endswith(".csv"):
        header, *rows = (line.split(",") for line in lines)
        return [dict(zip(header, map(_value, row))) if len(row) == len(header) else row for row in rows]
    checks = [re.fullmatch(r"(\w+ \S+): worst deviation (\S+) \(tolerance (\S+)\)", line) for line in lines]
    return [{"check": m[1], "worst": float(m[2]), "tolerance": float(m[3])} if m else line
            for m, line in zip(checks, lines)]


def _allowed(record: dict, key: str, index: tuple, value: float) -> float:
    """How far a float, record[key][*index], may move on another build.

    A number moves by rounding relative to itself, except a bias and a
    self-test deviation. A bias is a small difference of means: its error is
    relative to the estimates averaged, of size |ground truth| + root MSE. A
    deviation is a rounding or truncation residual, which may move anywhere
    within its tolerance.
    """
    if key in ("bias1", "bias2", "mean_bias"):
        gt = record["ground_truth"][index[0]] if key == "mean_bias" else record[f"gt{key[-1]}"]
        return REL * (abs(gt) + math.sqrt(record["mse"]))
    if key == "worst":
        return record["tolerance"]
    return REL * abs(value)


def _leaves(node, path="", record=None, key=None, index=()):
    """(path, value, allowed move) of each scalar of a parsed output; allowed is 0 but for a float."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, f"{path}.{k}", node, k, ())
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, f"{path}[{i}]", record, key, (*index, i))
    else:
        yield path, node, _allowed(record, key, index, node) if isinstance(node, float) else 0.0


def number_mismatches(name: str, pinned: str, now: str) -> list[str]:
    """Where output now differs from its pin past the rounding of another build; [] when it does not."""
    pinned_leaves, now_leaves = list(_leaves(_tree(name, pinned))), list(_leaves(_tree(name, now)))
    if [p for p, _, _ in pinned_leaves] != [p for p, _, _ in now_leaves]:
        return ["the fields differ"]
    return [
        f"{path}: pinned {a!r}, now {b!r}, allowed move {allowed:.3g}"
        for (path, a, allowed), (_, b, _) in zip(pinned_leaves, now_leaves)
        if not (a == b or isinstance(a, float) and isinstance(b, float) and abs(a - b) <= allowed)
    ]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("pins")
    return {run: _run(argv, out / name) for run, (name, argv) in RUNS.items()}


@pytest.fixture(scope="module")
def other_build() -> str:
    """Why the byte test skips: the build that made the pins and this one, when they differ; else ""."""
    pinned, build = json.loads((PINS_DIR / "build.json").read_text()), _build()
    return "" if build == pinned else f"pins made on {pinned}, this build is {build}: numbers compared only"


@pytest.mark.parametrize("run", RUNS)
def test_output_is_its_pin_byte_for_byte(run, outputs, other_build):
    if other_build:
        pytest.skip(other_build)
    name, _ = RUNS[run]
    assert outputs[run] == (PINS_DIR / name).read_bytes()


@pytest.mark.parametrize("run", RUNS)
def test_output_is_its_pin_in_number(run, outputs):
    name, _ = RUNS[run]
    assert number_mismatches(name, (PINS_DIR / name).read_text(), outputs[run].decode()) == []


def test_number_check_bounds_a_bias_by_its_rows_estimates():
    # a bias moves by rounding relative to |ground truth| + root MSE, any other number relative to itself
    name = "benchmark-600.csv"
    header, *rows = (PINS_DIR / name).read_text().splitlines()
    fields = header.split(",")
    record = dict(zip(fields, map(_value, rows[0].split(","))))

    def moved(field, by):
        cells = rows[0].split(",")
        cells[fields.index(field)] = repr(record[field] + by)
        return "\n".join([header, ",".join(cells), *rows[1:]]) + "\n"

    pinned = moved("mse", 0.0)
    for field, scale in (("bias1", abs(record["gt1"]) + math.sqrt(record["mse"])), ("mse", record["mse"])):
        assert number_mismatches(name, pinned, moved(field, 0.5 * REL * scale)) == []
        assert number_mismatches(name, pinned, moved(field, -2.0 * REL * scale))[0].startswith(f"[0].{field}: ")
    assert number_mismatches(name, pinned, pinned.replace("simple", "simpler", 1))[0].startswith("[0].estimator: ")
    assert number_mismatches(name, pinned, pinned.replace(",600\n", ",600,0\n", 1)) == ["the fields differ"]


if __name__ == "__main__":
    PINS_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in PINS.items():
        _run(argv, PINS_DIR / name)
    (PINS_DIR / "build.json").write_text(json.dumps(_build(), indent=2) + "\n")
