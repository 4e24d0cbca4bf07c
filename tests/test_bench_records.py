"""The committed benchmark records (BENCH_*.json at the repository root)
stay strict JSON with a description and the machine they were taken on."""

import json
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_strict_json_with_what_and_environment(path):
    record = json.loads(path.read_text(encoding="utf-8"),
                        parse_constant=_reject_constant)
    assert {"what", "environment"} <= set(record)
