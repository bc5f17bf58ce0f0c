"""Source-tree rules: invariant checks that survive ``python -O``, and docs that match the CLI."""

import argparse
import ast
import re
from pathlib import Path

from hemisystems.cli import build_parser

SRC = Path(__file__).resolve().parent.parent / "src" / "hemisystems"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every check in the package must
    # raise explicitly to keep running in optimized mode
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []


def test_readme_names_only_flags_the_cli_accepts():
    # a flag the README documents but no subcommand parses is stale
    # documentation; the install line's flags belong to pip
    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    accepted = {
        flag for sub in subcommands.choices.values() for flag in sub._option_string_actions
    }
    readme = (SRC.parent.parent / "README.md").read_text()
    named = {
        flag
        for line in readme.splitlines()
        if not line.lstrip().startswith("pip ")
        for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", line)
    }
    assert "--format" in named
    assert sorted(named - accepted) == []
