"""README's "Library use" block runs as written, so documented API cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    pinned, terminal = lines[0].split()
    assert 0 < int(pinned) <= 50 and float(terminal) >= 0.0
    assert (tmp_path / "runs" / "demo" / "summary.json").exists()
