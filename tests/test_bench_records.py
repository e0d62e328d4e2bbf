"""Every BENCH_<n>.json at the repository root has the schema README's "Performance benchmark" section documents."""

import json
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))
SUMMARY_FIELDS = {"parent_median", "change_median", "ratio_of_medians", "parent_iqr", "pairs", "change_better_in"}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_has_the_documented_keys(path):
    record = json.loads(path.read_text())
    for key in ("change", "command", "machine", "method"):
        assert isinstance(record[key], str), key
    assert isinstance(record["runs"], list)
    assert record["summary"]
    for workload, metrics in record["summary"].items():
        for metric, entry in metrics.items():
            assert SUMMARY_FIELDS <= entry.keys(), (workload, metric)
