"""The CLI golden corpus: every record of ``tests/golden/cli.json`` replayed
through ``cli.main`` gives the same exit status, stdout sha256 and first
stderr line.  ``tests/golden/generate.py`` writes the records and says how
to regenerate them."""

import argparse
import importlib.util
import json
import os

import pytest

from deltagraph.cli import make_parser

_spec = importlib.util.spec_from_file_location(
    "golden_generate", os.path.join(os.path.dirname(__file__), "golden", "generate.py")
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

with open(golden.RECORDS, encoding="utf-8") as _fh:
    RECORDS = json.load(_fh)


def test_records_cover_the_runs_and_every_exit_code():
    assert [r["argv"] for r in RECORDS] == golden.runs()
    assert {r["exit"] for r in RECORDS} == {0, 1, 2, 3}


def test_records_cover_every_subcommand_without_a_traceback():
    (sub,) = [a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {r["argv"][0] for r in RECORDS} == set(sub.choices)
    assert not any(r["stderr"].startswith("Traceback") for r in RECORDS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_replay(record):
    assert golden.run(record["argv"]) == record
