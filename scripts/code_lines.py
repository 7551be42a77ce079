#!/usr/bin/env python3
"""Count the code lines of Python files: the measure refactors are judged by.

A code line holds a token other than a comment, a docstring, indentation or a
line break, so blank lines, comments and docstrings do not count; a statement
over several lines counts each of them.  Prints each file's count and path,
then the total.

Usage: python scripts/code_lines.py src/staggrid/*.py
"""

import sys
import tokenize as t


def main(paths) -> None:
    lines, starts = 0, (t.NEWLINE, t.INDENT, t.DEDENT)
    for path in paths:
        rows, prev = set(), t.NEWLINE
        with open(path, "rb") as fh:
            for tok in t.tokenize(fh.readline):
                docstring = tok.type == t.STRING and prev in starts
                if tok.type not in (t.COMMENT, t.NL, t.ENCODING, t.ENDMARKER) + starts and not docstring:
                    rows.update(range(tok.start[0], tok.end[0] + 1))
                if tok.type not in (t.COMMENT, t.NL, t.ENCODING):
                    prev = tok.type
        print(len(rows), path)
        lines += len(rows)
    print(lines, "code lines")


if __name__ == "__main__":
    main(sys.argv[1:])
