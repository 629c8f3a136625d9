"""README's "Library use" block runs as written, so documented API cannot drift."""

import re
from pathlib import Path

import numpy as np

from pinnet.network import generate_adjacency

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


def test_outputs_adjacency_block_round_trips(tmp_path):
    # The numpy lines README gives for adjacency CSV write a "# n=<N>" header
    # and read the matrix back bit for bit.
    section = README.read_text(encoding="utf-8").split("## Outputs", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    g = generate_adjacency(7, 0.4, 99)
    scope = {"np": np, "g": g, "path": tmp_path / "adjacency.csv"}
    exec(compile(block, str(README), "exec"), scope)
    assert (tmp_path / "adjacency.csv").read_text().splitlines()[0] == "# n=7"
    assert scope["g"] is not g and scope["g"].shape == g.shape
    assert scope["g"].tobytes() == g.tobytes()
