"""``scripts/reproduce.py``: its table and ``results/`` name the same files,
every run in it parses, and a run with another exit code than its row's
makes the script exit 1."""

import runpy
from pathlib import Path

import pytest

from measerr.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = runpy.run_path(str(ROOT / "scripts" / "reproduce.py"))
TABLE = SCRIPT["TABLE"]


def test_every_result_has_exactly_one_row():
    names = [name for name, _, _ in TABLE]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(path.name for path in (ROOT / "results").iterdir())


@pytest.mark.parametrize("name,runs", [(name, runs) for name, _, runs in TABLE], ids=[row[0] for row in TABLE])
def test_every_run_parses(name, runs):
    assert runs
    for run in runs:
        argv = [*run, name] if run[-1] in SCRIPT["OUTPUT_FLAGS"] else run
        build_parser().parse_args(argv)


@pytest.mark.parametrize("expected,returns", [(1, 0), (0, 1)])
def test_a_run_exiting_otherwise_than_its_row_makes_it_exit_1(expected, returns, tmp_path, capsys):
    sign_flip = ["verify", "--dims", "2", "--n", "5", "--seed", "3", "--self-test-sign-flip", "--json"]
    table = (("failing.json", expected, [sign_flip]),)
    assert SCRIPT["reproduce"](table, tmp_path) == returns
    assert (tmp_path / "failing.json").exists()


def test_stdout_run_is_written_under_its_header(tmp_path, capsys):
    table = (("demo.txt", 0, [["demo", "naive-violation"], ["demo", "kr-reduction"]]),)
    assert SCRIPT["reproduce"](table, tmp_path) == 0
    lines = (tmp_path / "demo.txt").read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.startswith("$")] == [
        "$ measerr demo naive-violation",
        "$ measerr demo kr-reduction",
    ]
