#!/usr/bin/env python3
"""Line counts of the C++ sources, as `wc -l` totals.

Counts the lines of every *.hpp and *.cpp file under src/ (recursively),
under each src/<module>, and under tests/, and prints one row per group:

  src              16842
  src/core           178
  ...
  tests             9537

A line is a newline character, exactly as `wc -l` counts it. Changes that
delete code report these totals next to their benchmark numbers.

Usage:
  scripts/line_counts.py [repo-root]   (default: the script's parent)
"""

import pathlib
import sys

SUFFIXES = (".hpp", ".cpp")


def count_lines(directory):
    total = 0
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.suffix in SUFFIXES:
            total += path.read_bytes().count(b"\n")
    return total


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    rows = [("src", count_lines(src))]
    for module in sorted(p for p in src.iterdir() if p.is_dir()):
        rows.append((f"src/{module.name}", count_lines(module)))
    rows.append(("tests", count_lines(root / "tests")))
    width = max(len(name) for name, _ in rows)
    for name, lines in rows:
        print(f"{name:<{width}}  {lines:>6}")


if __name__ == "__main__":
    main()
