"""README's examples run: its Python block, and each ``pillarcost`` command
of its command-line block, with every ``--output`` written to a temporary
directory."""
import re
import shlex
from pathlib import Path

import pytest

from pillarcost.cli import build_parser, run

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def commands() -> list[list[str]]:
    """The argv of each ``pillarcost ...`` line, continuation lines joined
    and comments dropped."""
    argvs = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["pillarcost"]:
                argvs.append(words[1:])
    return argvs


def test_python_block_runs(capsys):
    (block,) = blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_every_subcommand_has_an_example():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in commands()} == set(subcommands)


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_command_exits_0(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples name the shipped data by relative path
    argv = [str(tmp_path / arg) if flag == "--output" else arg
            for flag, arg in zip([None, *argv], argv)]
    assert run(argv) == 0
