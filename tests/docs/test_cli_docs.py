"""Every ``repro-cbi`` command shown in the docs parses.

Scans the fenced blocks of README.md, DESIGN.md, EXPERIMENTS.md and
docs/*.md for lines that start with ``repro-cbi``, joins backslash
continuations, strips a trailing ``# ...`` comment and ``&``, and feeds
the rest to :func:`repro.cli.build_parser`.  A renamed flag, subcommand
or choice that the docs still show fails here instead of in a reader's
shell.
"""

from __future__ import annotations

import glob
import os
import re
import shlex

import pytest

from repro.cli import build_parser

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DOCS = [
    os.path.join(REPO_ROOT, name)
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
] + sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))


def _documented_commands():
    """``(location, argv)`` for each ``repro-cbi`` line in a fenced block."""
    commands = []
    for path in DOCS:
        in_fence = False
        pending = ""
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                text = line.strip()
                if text.startswith("```"):
                    in_fence, pending = not in_fence, ""
                    continue
                if not in_fence:
                    continue
                text = pending + text
                if text.endswith("\\"):
                    pending = text[:-1] + " "
                    continue
                pending = ""
                if not text.startswith("repro-cbi "):
                    continue
                text = re.sub(r"\s#.*$", "", text).rstrip().rstrip("&")
                location = f"{os.path.relpath(path, REPO_ROOT)}:{lineno}"
                commands.append((location, shlex.split(text)[1:]))
    return commands


COMMANDS = _documented_commands()


def test_scanner_joins_continuations():
    # EXPERIMENTS.md's fault-injection recipe spans three lines.
    assert any("--out" in argv and "--inject-fault" in argv for _, argv in COMMANDS)


@pytest.mark.parametrize("argv", [c[1] for c in COMMANDS], ids=[c[0] for c in COMMANDS])
def test_documented_command_parses(argv):
    build_parser().parse_args(argv)
