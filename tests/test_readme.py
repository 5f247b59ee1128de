"""The README's python example and its `sliceregular` shell examples run as written."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from sliceregular.cli import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    block, = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})


def shell_examples() -> list[list[str]]:
    """The arguments of each `sliceregular` command in the README's sh blocks,
    except `verify all`, which test_criterion_9_verify_all_cli runs."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for command in re.split(r"\n(?=sliceregular )", block.replace("\\\n", " ")):
            words = shlex.split(command, comments=True)
            if words and words[0] == "sliceregular" and words[1:3] != ["verify", "all"]:
                commands.append(words[1:])
    return commands


EXAMPLES = shell_examples()


def test_readme_has_shell_examples():
    assert [args[0] for args in EXAMPLES] == ["transform", "transform", "regprod"]


@pytest.mark.parametrize("args", EXAMPLES, ids=[f"{a[0]}-{i}" for i, a in enumerate(EXAMPLES)])
def test_shell_example_runs(args, tmp_path):
    args = [str(tmp_path / value) if i and args[i - 1] == "--out" else value
            for i, value in enumerate(args)]
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output
    if "--out" in args:
        assert Path(args[args.index("--out") + 1]).stat().st_size > 0
