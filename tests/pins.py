"""Reprint the digest of every pinned output file.

    PYTHONPATH=src python tests/pins.py [--keep DIR] [--against DIR]

The pins are test_rows.TestPinnedBytes and test_sweeps.test_pinned_bytes
(each module's PINS). Every pin is written afresh in a temporary
directory; for each pin, the script prints its name, then each file's
SHA-256 with `=` where it equals the recorded digest and `*` where it
moved, so that a change that moves outputs on purpose re-records them
in one step and can name every moved file. It exits 1 when a digest
moved.

--keep DIR     leave each pin's files in DIR/<pin>/
--against DIR  for each file whose bytes differ from DIR/<pin>/<file>,
               a tree kept by --keep on the code before a change, also
               print the largest distance between their numbers in ulps
"""

from __future__ import annotations

import argparse
import contextlib
import io
import pathlib
import re
import shutil
import sys
import tempfile

import numpy as np

import test_rows
import test_sweeps

_TOKEN = re.compile(r"[^,\s:{}\[\]\"]+")


def _ordered(x: np.ndarray) -> np.ndarray:
    """Doubles as integers in the order of their values, one apart
    where no double lies between them; -0.0 and 0.0 both map to 0."""
    i = x.view(np.int64)
    return np.where(i < 0, np.int64(-(2**63)) - i, i)


def ulp_distance(old: bytes, new: bytes) -> str:
    """The largest distance in ulps between the numbers of two text
    files that differ in their numbers alone, or why it has none."""
    a, b = _TOKEN.findall(old.decode()), _TOKEN.findall(new.decode())
    if len(a) != len(b):
        return f"{len(a)} tokens against {len(b)}"
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    if not pairs:
        return "no number differs"
    try:
        x, y = (np.array([float(t) for t in side]) for side in zip(*pairs))
    except ValueError:
        return "a token other than a number differs"
    same_nan = np.isnan(x) & np.isnan(y)
    if np.any(np.isnan(x) != np.isnan(y)):
        return "a NaN moved"
    d = np.abs(_ordered(x[~same_nan]) - _ordered(y[~same_nan]))
    return f"{int(d.max(initial=0))} ulp over {len(pairs)} of {len(a)} tokens"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--keep", type=pathlib.Path)
    p.add_argument("--against", type=pathlib.Path)
    args = p.parse_args(argv)
    moved = False
    for name, (writer, recorded) in {**test_rows.PINS, **test_sweeps.PINS}.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "out"
            out.mkdir()
            with contextlib.redirect_stdout(io.StringIO()):
                writer(out.parent)
            got = test_rows.digests(out)
            print(name)
            for file in sorted(set(got) | set(recorded)):
                same = got.get(file) == recorded.get(file)
                moved |= not same
                line = f"  {'=' if same else '*'} {file}: {got.get(file, 'not written')}"
                old = None if args.against is None else args.against / name / file
                if file in got and old is not None and old.exists():
                    old_bytes, new_bytes = old.read_bytes(), (out / file).read_bytes()
                    if old_bytes != new_bytes:
                        line += f"  ({ulp_distance(old_bytes, new_bytes)})"
                print(line)
            if args.keep is not None:
                shutil.copytree(out, args.keep / name)
    return int(moved)


if __name__ == "__main__":
    sys.exit(main())
