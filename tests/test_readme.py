"""README.md's examples: every ```python block runs and its asserts hold,
and every ``$ revdcj ...`` line of a ```text block runs through the CLI,
printing exactly the output shown under it, if any."""

import re
import shlex
from pathlib import Path

import pytest

from revdcj import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)


def _transcripts():
    """(argv, expected stdout or None) for each command line shown."""
    out = []
    for block in re.findall(r"^```text\n(.*?)^```$", TEXT, re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if not chunk.startswith("$ revdcj "):
                continue
            command, _, shown = chunk.partition("\n")
            argv = shlex.split(command[2:], comments=True)[1:]
            out.append((argv, shown or None))
    return out


TRANSCRIPTS = _transcripts()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=["block%d" % i for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_shows_command_output():
    assert any(shown for _, shown in TRANSCRIPTS)


@pytest.mark.parametrize(
    "argv, shown", TRANSCRIPTS, ids=[" ".join(argv[:1]) for argv, _ in TRANSCRIPTS]
)
def test_readme_command_runs(argv, shown, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if shown is not None:
        assert out == shown
