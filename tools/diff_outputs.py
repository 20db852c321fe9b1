"""Compare two `tools/write_outputs.py` directories number by number.

    python tools/diff_outputs.py DIR_A DIR_B

splits every file of both directories into numbers and the text between
them.  Any difference that is not a change of a number's value (a file
on one side only, a changed word, a number that became `NaN`, a line
more or less) is printed and makes the tool exit 1.  Otherwise it prints,
for each file, how many numbers changed and the largest relative change
|a - b| / max(|a|, |b|) among numbers whose magnitude exceeds FLOOR on
either side, with the pair that gives it; changes of numbers at or
below FLOOR, such as eigenpair residuals, are counted apart.
It exits 0.  `diff -r` tells that two checkouts differ; this tells by
how much.
"""

import argparse
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
FLOOR = 1e-10  # magnitudes at or below this are rounding-level, not sized


def split(text):
    """(texts, numbers): the text around the numeric literals, and the
    literals; len(texts) == len(numbers) + 1."""
    return NUMBER.split(text), NUMBER.findall(text)


def compare(text_a, text_b):
    """None if the two texts differ other than in the values of numbers,
    else (changed above FLOOR, changed at or below it, largest relative
    change above it, the pair of literals that gives it)."""
    texts_a, numbers_a = split(text_a)
    texts_b, numbers_b = split(text_b)
    if texts_a != texts_b:
        return None
    above = below = 0
    worst, pair = 0.0, None
    for a, b in zip(numbers_a, numbers_b):
        if a == b:
            continue
        x, y = float(a), float(b)
        scale = max(abs(x), abs(y))
        if scale <= FLOOR:
            below += 1
            continue
        above += 1
        rel = abs(x - y) / scale
        if rel > worst or pair is None:
            worst, pair = rel, (a, b)
    return above, below, worst, pair


def first_text_difference(text_a, text_b):
    """The first differing line of two texts, for the message."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    for i, (a, b) in enumerate(zip(lines_a, lines_b)):
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            return f"line {i + 1}: {a!r} vs {b!r}"
    return f"{len(lines_a)} lines vs {len(lines_b)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")

    files_a = {p.relative_to(args.dir_a) for p in args.dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(args.dir_b) for p in args.dir_b.rglob("*") if p.is_file()}
    differs = False
    for name in sorted(files_a ^ files_b):
        side = args.dir_a if name in files_a else args.dir_b
        print(f"{name}: only in {side}")
        differs = True
    for name in sorted(files_a & files_b):
        text_a = (args.dir_a / name).read_text()
        text_b = (args.dir_b / name).read_text()
        result = compare(text_a, text_b)
        if result is None:
            print(f"{name}: text differs, {first_text_difference(text_a, text_b)}")
            differs = True
            continue
        above, below, worst, pair = result
        line = f"{name}: {above} numbers above {FLOOR:g} changed"
        if pair is not None:
            line += f", largest relative change {worst:.3g} ({pair[0]} -> {pair[1]})"
        print(f"{line}; {below} at or below it changed")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
