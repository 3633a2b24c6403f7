"""``docs/cli.md`` must name every real CLI flag, and no stale ones.

Two directions, per subcommand: every ``--flag`` the argparse parsers
define appears in the subcommand's section of the doc (so new flags
cannot ship undocumented), and every ``--flag`` the doc names is accepted
by the corresponding ``--help`` (so removed flags cannot linger). The
``--help`` text itself is the source of truth — the doc is parsed, the
parser is introspected.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser

DOC = Path(__file__).resolve().parents[2] / "docs" / "cli.md"
SUBCOMMANDS = ("run", "report", "list", "serve", "worker")

FLAG = re.compile(r"`(--[a-z][a-z0-9-]*)`")


def doc_sections() -> dict:
    """Map subcommand name -> its ``## <name>`` section text."""
    text = DOC.read_text()
    sections = {}
    parts = re.split(r"^##\s+(\w+)\s*$", text, flags=re.MULTILINE)
    for name, body in zip(parts[1::2], parts[2::2]):
        sections[name] = body
    return sections


def subcommand_parser(subcommand: str):
    """The argparse sub-parser behind ``python -m repro <subcommand>``."""
    parser = build_parser()
    return parser._subparsers._group_actions[0].choices[subcommand]


def parser_flags(subcommand: str) -> set:
    """Every long option a subcommand's parser accepts (minus --help)."""
    sub = subcommand_parser(subcommand)
    flags = set()
    for action in sub._actions:
        for option in action.option_strings:
            if option.startswith("--") and option != "--help":
                flags.add(option)
    return flags


def test_doc_exists_with_all_subcommand_sections():
    sections = doc_sections()
    for name in SUBCOMMANDS:
        assert name in sections, f"docs/cli.md lacks a '## {name}' section"


def test_doc_sections_are_exactly_the_subcommands():
    choices = build_parser()._subparsers._group_actions[0].choices
    assert set(SUBCOMMANDS) == set(choices) == set(doc_sections())


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_every_parser_flag_is_documented(subcommand):
    section = doc_sections()[subcommand]
    documented = set(FLAG.findall(section))
    missing = parser_flags(subcommand) - documented
    assert not missing, (
        f"flags of '{subcommand}' missing from docs/cli.md: {sorted(missing)}"
    )


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_no_stale_documented_flags(subcommand):
    section = doc_sections()[subcommand]
    documented = set(FLAG.findall(section))
    stale = documented - parser_flags(subcommand)
    assert not stale, (
        f"docs/cli.md documents flags '{subcommand}' does not accept: {sorted(stale)}"
    )


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_help_output_mentions_every_documented_flag(subcommand):
    """The acceptance check: --help text covers the documented flags."""
    help_text = subcommand_parser(subcommand).format_help()
    for flag in FLAG.findall(doc_sections()[subcommand]):
        assert flag in help_text, (
            f"documented flag {flag} absent from 'python -m repro {subcommand} --help'"
        )
