import argparse
import doctest
import re
from pathlib import Path

import pytest

from oracles import reference_parser
from solvgraph.cli import _COMMANDS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_examples_in_readme_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_command_line_section_names_every_parser_option():
    # README's "Command line" section, the command table and the argparse
    # reference must name the same options, so a removed or added flag
    # cannot leave the docs stale
    section = README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    options = {"--force", "--format", *(o[0] for *_, extra in _COMMANDS for o in extra)}
    subs = next(a for a in reference_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    reference = {o for sub in subs.choices.values() for a in sub._actions
                 for o in a.option_strings} - {"-h", "--help"}
    assert options == reference
    assert named == options


def _divisible_builtins():
    """The specs README names in "`conjecture` prints `divisible=yes` on ...":
    a comma-separated list whose last item follows "and"."""
    text = " ".join(README.read_text().split())
    names = re.search(r"`conjecture` prints `divisible=yes` on (.*?)\. ", text).group(1)
    return re.split(r", | and ", names)


@pytest.mark.parametrize("spec", [
    pytest.param(spec, marks=pytest.mark.slow) if spec == "sl3@3" else spec  # about 8 s
    for spec in _divisible_builtins()])
@pytest.mark.usefixtures("main_loads_once")
def test_divisibility_list_matches_conjecture(spec, capsys):
    # each builtin README lists as divisible must print divisible=yes, so a
    # stale list fails the suite
    assert main(["conjecture", spec]) == 0
    assert " divisible=yes " in capsys.readouterr().out

