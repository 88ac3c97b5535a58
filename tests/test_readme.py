"""The README's CLI examples run, in order, and each exits 0."""

import re
import shlex
from pathlib import Path

from atlab import cli

ROOT = Path(__file__).resolve().parents[1]


def readme_cli_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("atlab ")]


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert commands
    for argv in commands:
        assert cli.main(argv[1:]) == 0, shlex.join(argv)
        capsys.readouterr()
