"""README's Layout section lists, module by module, where each public name
lives. Every name it lists must exist in the module its bullet names. Its
CLI synopsis names every flag of each subcommand, and no other."""

from __future__ import annotations

import argparse
import importlib
import re
from pathlib import Path

from reqflow.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _layout_bullets() -> dict[str, str]:
    """The text of each `X.py` bullet of the Layout section, by module."""
    section = README.read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    for bullet in re.split(r"\n(?=- )", section):
        match = re.match(r"- `(\w+)\.py`:(.*)", bullet, re.DOTALL)
        if match:
            bullets[match[1]] = match[2].split("\n\n", 1)[0]
    return bullets


def _resolves(module, name: str) -> bool:
    """A name, Class.attr (a dataclass field counts), a call form by the
    name before its '(', or a PREFIX_* pattern matching at least one name."""
    name = name.split("(", 1)[0]
    if name.endswith("*"):
        return any(attr.startswith(name[:-1]) for attr in vars(module))
    *path, last = name.split(".")
    holder = module
    for part in path:
        holder = getattr(holder, part, None)
        if holder is None:
            return False
    return hasattr(holder, last) or last in getattr(holder, "__dataclass_fields__", {})


def test_every_name_in_the_layout_resolves_in_its_module():
    bullets = _layout_bullets()
    assert {"records", "ingest", "engine", "dag", "synth", "truth", "cli"} <= bullets.keys()
    missing = [
        f"{module}.py: {name}"
        for module, text in sorted(bullets.items())
        for name in re.findall(r"`([^`]+)`", text)
        if not _resolves(importlib.import_module(f"reqflow.{module}"), "".join(name.split()))
    ]
    assert missing == []


def test_records_bullet_names_the_json_reader():
    text = _layout_bullets()["records"]
    names = {"".join(name.split()) for name in re.findall(r"`([^`]+)`", text)}
    assert "read_json(path)" in names


def _synopsis_flags() -> dict[str, set[str]]:
    """The flags of each subcommand in README's CLI synopsis block."""
    block = README.read_text().split("\n## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    flags: dict[str, set[str]] = {}
    for command, text in re.findall(r"^reqflow (\w+)(.*?)(?=^reqflow |\Z)", block, re.M | re.S):
        flags[command] = set(re.findall(r"--[a-z-]+", text))
    return flags


def test_cli_synopsis_names_exactly_the_parser_flags():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    defined = {
        command: {
            flag for action in parser._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for command, parser in subparsers.choices.items()
    }
    assert _synopsis_flags() == defined
