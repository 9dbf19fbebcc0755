"""README's "Library use" example runs as written against small inputs, so a
removed or renamed public name fails here instead of in a reader's hands."""

import re
from pathlib import Path

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
