"""The README's Python examples run as written.

Each ```python block that holds `>>>` lines is parsed as one doctest, so
the closing fence is never read as expected output (as it is by a
`python -m doctest README.md` run).  The blocks run in README order and
share their globals, as one session reading the README top to bottom.
Each `partitionlab` command of the ```sh blocks runs through `cli.main`
and exits as its comment says: 1 where it says "exits 1", else 0.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from partitionlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)
SH_BLOCK = re.compile(r"^```sh\n(.*?)^```$", re.M | re.S)


def readme_examples():
    """(line number of the block's first line, 0-based; its text) for each
    ```python block of the README that holds a `>>>` example."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start(1)), match.group(1))
        for match in PYTHON_BLOCK.finditer(text)
        if ">>>" in match.group(1)
    ]


def test_readme_examples_run_as_written():
    blocks = readme_examples()
    assert len(blocks) >= 2
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    globs = {}
    report = []
    for lineno, block in blocks:
        test = parser.get_doctest(block, globs, README.name, str(README), lineno)
        runner.run(test, out=report.append, clear_globs=False)
        globs = test.globs
    results = runner.summarize(verbose=False)
    assert results.attempted >= 10
    assert results.failed == 0, "".join(report)


def readme_commands():
    """(argv after `partitionlab`, its comment) for each command line of
    the README's ```sh blocks."""
    text = README.read_text(encoding="utf-8")
    return [
        (shlex.split(command)[1:], comment)
        for block in SH_BLOCK.findall(text)
        for command, _, comment in (line.partition("#") for line in block.splitlines())
        if command.startswith("partitionlab ")
    ]


def test_readme_has_command_examples():
    assert len(readme_commands()) >= 6


@pytest.mark.parametrize(
    "argv, comment",
    [
        pytest.param(argv, comment, id=" ".join(argv))
        for argv, comment in readme_commands()
    ],
)
def test_readme_command_runs_as_written(argv, comment, tmp_path, monkeypatch, capsys):
    # inside tmp_path, so that an --out file lands there
    monkeypatch.chdir(tmp_path)
    expected = 1 if "exits 1" in comment else 0
    assert cli.main(argv) == expected, capsys.readouterr().err
