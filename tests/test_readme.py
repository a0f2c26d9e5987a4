"""The README's command lines run as shown.

Every ``fnequiv`` command in README.md's fenced blocks runs through
``cli.main``, in order, in a directory that holds the inputs README shows:
``net.json`` from its network file format, and each ``# name.json: {...}``
comment of a command block.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

from fnequiv.cli import OUTPUT_DIR_ENV, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(text: str) -> list[str]:
    return re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)


def readme_commands(text: str) -> list[list[str]]:
    """The argv of each ``fnequiv`` line of the fenced blocks, with
    backslash continuations joined."""
    lines = "\n".join(fenced_blocks(text)).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fnequiv ")]


def readme_inputs(text: str) -> dict[str, dict]:
    """File name -> document: the network file format's example as
    ``net.json``, and each ``name.json: {...}`` in a block's comments, whose
    JSON may run on over the comment lines below it."""
    inputs = {"net.json": json.loads(fenced_blocks(text.split("## Network file format")[1])[0])}
    decoder = json.JSONDecoder()
    for block in fenced_blocks(text):
        comments = "\n".join(line[1:] for line in block.splitlines() if line.startswith("#"))
        for match in re.finditer(r"(\S+\.json):\s*", comments):
            inputs[match[1]] = decoder.raw_decode(comments, match.end())[0]
    return inputs


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    inputs = readme_inputs(text)
    assert sorted(inputs) == ["bounds.json", "net.json", "perm.json", "sweep.json"]
    for name, doc in inputs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    commands = readme_commands(text)
    # The README shows every subcommand.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(sub.choices)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
