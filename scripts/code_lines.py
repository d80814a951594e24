#!/usr/bin/env python3
"""Count the lines of code of each module of the package.

A line counts when it holds part of a token that is neither a comment, nor a
docstring, nor layout (line ends and indentation); a docstring is a string
literal that is a whole statement by itself.  Unlike ``wc -l``, the count does
not move when a docstring or a comment is rewritten.

Prints one ``count module`` line per module of ``src/oddzeta``, or of the
directory given, in name order, and then the total.

Usage: python scripts/code_lines.py [DIRECTORY]
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oddzeta"

LAYOUT = frozenset(
    (
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    )
)


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the tokens of the logical line so far
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            statement.append(token)
        elif token.type == tokenize.NEWLINE:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for part in statement:
                    lines.update(range(part.start[0], part.end[0] + 1))
            statement = []
    return len(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args()
    total = 0
    for path in sorted(args.directory.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main()
