"""Chunked CSV rows: the writer every CSV in the package goes through,
and the two-column reader behind read_spike_train.

The files hold plain numbers, so no cell ever needs quoting; rows are
formatted and parsed with str methods a fixed number of rows at a
time, which keeps memory flat whatever the file length.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

# Rows formatted or parsed per step. Larger chunks buy little speed
# and cost memory in proportion.
CHUNK_ROWS = 1024


def write_rows(fh, header: str, fmt: str, *columns) -> None:
    """Write header, then fmt.format(*cells) for each row.

    Each column is a numpy array or a range of equal length. Array
    cells go through .tolist(), so floats format as Python floats
    ({!r} gives their shortest round-trip repr).
    """
    fh.write(header)
    n = len(columns[0])
    for lo in range(0, n, CHUNK_ROWS):
        parts = [c[lo:lo + CHUNK_ROWS] for c in columns]
        parts = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
        fh.writelines(map(fmt.format, *parts))


def read_pairs(fh, path: str, header: tuple):
    """Yield (first row index, first cells, second cells) per chunk of
    a two-column CSV whose header is header (spaces around a name are
    allowed).

    Each chunk is split on commas in one call. A cell keeps its spaces
    and, in the second column, the line ending of its row. A row with
    other than two cells is a ValueError that names its row, counting
    data rows from 1.
    """
    got = tuple(c.strip() for c in fh.readline().split(","))
    if got != header:
        raise ValueError(f"{path}: header is {','.join(got)!r}, expected {','.join(header)!r}")
    lo = 0
    while lines := list(islice(fh, CHUNK_ROWS)):
        cells = ",".join(lines).split(",")
        first = cells[0::2]
        # Every line but the last ends in a line break, which only lands
        # in a first cell when some row has other than one comma; with
        # the count check this proves every row has exactly two cells.
        breaks = "".join(first)
        if len(cells) != 2 * len(lines) or "\n" in breaks or "\r" in breaks:
            for i, line in enumerate(lines):
                if line.count(",") != 1:
                    raise ValueError(f"{path}: row {lo + i + 1} should hold 2 cells, "
                                     f"holds {line.count(',') + 1}")
        yield lo, first, cells[1::2]
        lo += len(lines)
