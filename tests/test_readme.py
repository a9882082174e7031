"""Every ```python block of README.md runs as written, and so does every
``vtcomp`` line of its ```bash blocks."""

import re
import shlex
from pathlib import Path

import pytest

from vtcomp import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
BASH = re.findall(r"^```bash\n(.*?)^```$", README, re.M | re.S)


def _argvs(block):
    """Each command of a block as its argv: continuations joined, comments dropped."""
    return [argv for line in re.sub(r"\\\n", " ", block).splitlines()
            if (argv := shlex.split(line, comments=True))]


CLI_ARGVS = [argv for block in BASH for argv in _argvs(block) if argv[0] == "vtcomp"]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_cli_example_runs(capsys, tmp_path, monkeypatch):
    # The lines run in order, as a reader would type them: later ones read
    # the files earlier ones write.  A flag or choice the CLI no longer
    # takes exits 2 here.
    assert CLI_ARGVS
    monkeypatch.chdir(tmp_path)
    for argv in CLI_ARGVS:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
