"""README's Quick tour, run as written: every `stochworld` line of its `sh`
blocks goes through ``cli.main`` in-process, in a temporary directory that
holds the shipped models and the files the tour's heredocs write."""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from stochworld.cli import main

from helpers import MODELS_DIR

README = Path(__file__).resolve().parent.parent / "README.md"

#: pipes into tools outside the repository, each dropped by name with its
#: reason; the stochworld command before it still runs
SKIPPED_PIPES = {
    "| dot -Tpng > daynight.png": "Graphviz is not a dependency of the toolkit",
}

#: per command, the output that its `#` comment states: the comment, then
#: either None and lines that stdout must hold, or the file the command
#: writes and its lines, all of them
STATED = {
    "stochworld analyze models/fig3.model": (
        "white-peak: 1 / black-hole: 3 4", None, ["white-peak: 1", "black-hole: 3 4"],
    ),
    "stochworld past models/cycle3.model --depth 2": ("b,c 1", None, ["b,c 1"]),
    "stochworld detect house.traj --direct move.charfn -o house.stream": (
        "move at steps 0, 1, 3",
        "house.stream",
        ["0 move [1,1] direct", "1 move [1,1] direct", "3 move [1,1] direct"],
    ),
    "stochworld track house.traj --model models/house.model --events house.stream": (
        "belief r1 1", None, ["belief r1 1"],
    ),
}


def tour_steps(readme: str) -> list:
    """The tour's steps in order: ("write", name, text) for a heredoc,
    ("run", command, comment) for a stochworld line."""
    tour = readme.split("\n## Quick tour\n", 1)[1].split("\n## ", 1)[0]
    steps = []
    for block in re.findall(r"^```sh\n(.*?)^```", tour, re.S | re.M):
        lines = iter(block.splitlines())
        for line in lines:
            heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
            if heredoc:
                body = []
                for text in lines:
                    if text == "EOF":
                        break
                    body.append(text + "\n")
                steps.append(("write", heredoc[1], "".join(body)))
                continue
            command, _, comment = line.partition("#")
            assert command.startswith("stochworld "), f"the tour test cannot run {line!r}"
            steps.append(("run", command.strip(), comment.strip()))
    return steps


def test_quick_tour_runs_as_written(tmp_path, monkeypatch, capsys):
    shutil.copytree(MODELS_DIR, tmp_path / "models")
    monkeypatch.chdir(tmp_path)
    ran, checked, skipped = 0, set(), set()
    for kind, first, second in tour_steps(README.read_text(encoding="utf-8")):
        if kind == "write":
            (tmp_path / first).write_text(second)
            continue
        command, comment = first, second
        for pipe in SKIPPED_PIPES:
            if command.endswith(pipe):
                command = command[: -len(pipe)].strip()
                skipped.add(pipe)
        assert "|" not in command and ">" not in command, f"no rule to run {command!r}"
        code = main(shlex.split(command)[1:])
        out, err = capsys.readouterr()
        assert code == 0, f"{command}: exit {code}: {err}"
        ran += 1
        if command in STATED:
            stated, path, lines = STATED[command]
            assert comment == stated, f"{command}: the README now states {comment!r}"
            held = (out if path is None else (tmp_path / path).read_text()).splitlines()
            assert held == lines if path else set(lines) <= set(held), f"{command} wrote {held}"
            checked.add(command)
    assert checked == set(STATED)
    assert skipped == set(SKIPPED_PIPES)
    assert ran >= 16
