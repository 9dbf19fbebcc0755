"""README's "Library use" example runs as written against small inputs, and
its CLI examples parse, so a removed or renamed public name or flag fails
here instead of in a reader's hands."""

import re
import shlex
from pathlib import Path

import pytest

from lexsynth.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "combined.tsv").write_text(
        "# src_lang: en\n# tgt_lang: mt\nthe\til\nhouse\tdar\nhouse\tid-dar\nbig\tkbir\n",
        encoding="utf-8")
    (tmp_path / "wiki.eng.tok").write_text(
        "the house is big\nThe big house\nno match here\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {"__name__": "readme"})
    pseudo = (tmp_path / "pseudo.mlt").read_text(encoding="utf-8").splitlines()
    assert len(pseudo) == 3
    assert pseudo[0].split()[0] == "il" and pseudo[0].split()[3] == "kbir"
    assert pseudo[2] == "no match here"
    assert float(capsys.readouterr().out) == 6 / 10


def cli_commands():
    """Each ``lexsynth ...`` command in README's CLI sh block, its ``\\``
    continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("lexsynth ")]


def test_cli_examples_parse(capsys):
    commands = cli_commands()
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"lexsynth {shlex.join(argv)}: {capsys.readouterr().err}")
