"""The README's CLI block, run as written, with every output read back.

This module needs only the runtime packages (numpy, click) and pytest, so it
also runs against an installed wheel without the test extra:

    pip install . pytest && python -m pytest -q tests/test_readme.py

Each command's stdout is strict JSON, or empty for a command that writes
files.  Every file a command writes is read back: a CSV through
``ingest_asd`` and ``write_asd_csv``, whose header and rows must come out
byte for byte; an SVG with ``ElementTree``; a summary as strict JSON.
"""

import json
import pathlib
import shlex
import xml.etree.ElementTree as ET

import pytest
from click.testing import CliRunner

from sqznb import ingest_asd, write_asd_csv
from sqznb.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _readme_commands() -> list[list[str]]:
    """Arguments of each ``sqznb ...`` line in README's CLI block, continuations joined."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("sqznb ")]


README_COMMANDS = _readme_commands()


def readme_args(args, out_dir) -> list[str]:
    """``args`` with the ``--out`` prefix, if any, moved under ``out_dir``."""
    args = list(args)
    if "--out" in args:
        at = args.index("--out") + 1
        args[at] = str(pathlib.Path(out_dir) / args[at])
    return args


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """``text`` parsed as JSON without NaN or Infinity, which no strict consumer reads."""
    return json.loads(text, parse_constant=_reject_constant)


def _data_lines(path) -> list[bytes]:
    return [line for line in path.read_bytes().split(b"\n") if not line.startswith(b"#")]


def _csv_round_trips(path, tmp):
    table = ingest_asd(path)
    again = tmp / f"again-{path.name}"
    write_asd_csv(again, table.frequencies, table.asd)
    assert _data_lines(again) == _data_lines(path), path


#: How each file a README command writes is read back, by name pattern.
READ_BACK = {
    "*.csv": _csv_round_trips,
    "*.svg": lambda path, tmp: ET.parse(path),
    "*-summary.json": lambda path, tmp: strict_json(path.read_text(encoding="utf-8")),
}


def test_readme_shows_every_subcommand():
    assert {args[0] for args in README_COMMANDS} == set(main.commands)


@pytest.mark.parametrize("args", README_COMMANDS, ids=" ".join)
def test_readme_example_runs(tmp_path, monkeypatch, args):
    monkeypatch.chdir(ROOT)  # the README's config paths are relative to the repository root
    out, scratch = tmp_path / "run", tmp_path / "scratch"
    scratch.mkdir()
    result = CliRunner().invoke(main, readme_args(args, out))
    assert result.exit_code == 0, result.output
    if "--out" not in args:
        strict_json(result.stdout)
        return
    assert result.stdout == ""
    written = sorted(p for p in out.rglob("*") if p.is_file())
    read = {pattern: [p for p in written if p.match(pattern)] for pattern in READ_BACK}
    assert sorted(sum(read.values(), [])) == written  # each file has exactly one rule
    assert read["*.csv"]
    assert bool(read["*-summary.json"]) is (args[0] == "budget")
    assert bool(read["*.svg"]) is (args[0] == "project" or "--svg" in args)
    for pattern, paths in read.items():
        for path in paths:
            READ_BACK[pattern](path, scratch)
