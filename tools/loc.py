#!/usr/bin/env python3
"""Line counts of the workspace, tracked like a performance number.

Prints two figures:

  * non-test library lines: every `crates/*/src/**/*.rs` and `src/**/*.rs`
    file, each counted up to its first `#[cfg(test)]` line (so in-file
    unit-test modules do not count);
  * total `.rs` lines under `crates`, `src`, `tests` and `examples`
    (tests, benches, binaries and examples included).

Report only: the script always exits 0.

Usage: python3 tools/loc.py  (run from the repo root)
"""

from pathlib import Path


def lines_before_tests(path):
    """Lines of `path` before its first `#[cfg(test)]` line."""
    n = 0
    with path.open(encoding="utf-8") as f:
        for line in f:
            if line.strip().startswith("#[cfg(test)]"):
                break
            n += 1
    return n


def all_lines(path):
    with path.open(encoding="utf-8") as f:
        return sum(1 for _ in f)


def main():
    root = Path(".")
    library = sorted(root.glob("crates/*/src/**/*.rs")) + sorted(root.glob("src/**/*.rs"))
    every = sorted(
        p for top in ("crates", "src", "tests", "examples") for p in root.glob(f"{top}/**/*.rs")
    )
    print(f"non-test library lines: {sum(map(lines_before_tests, library))} "
          f"({len(library)} files)")
    print(f"total .rs lines (crates src tests examples): {sum(map(all_lines, every))} "
          f"({len(every)} files)")


if __name__ == "__main__":
    main()
