"""CSV rows, rendered and read in fixed blocks so memory stays flat
whatever the file length.

This module alone decides how a number becomes text. It renders an
output file's bytes and opens none (_atomic.write_files commits them).
A cell is the repr of its column's .tolist() item (_texts), so
callers hand over numpy arrays, never text, and no cell ever needs
quoting; _cells alone turns a column into cells, NUL-padded
S items, and rows are numpy byte matrices with each column's cells
copied between the separators. No written byte is NUL, so dropping
every NUL from a block of rows leaves their text. A float64 cell in
[1e-4, 1e16), where _texts writes fixed notation, is computed with
array arithmetic, BLOCK_CELLS cells at a time (_float_cells): Dekker's
exact product gives x * 10**p as an integer and a fraction, and the
shortest digits that read back as x are the multiple of the largest
power of ten that lies strictly inside x's rounding gap (_shortest).
Every other cell, and a tie between two shortest decimals, is its
_texts. table_files renders rows in blocks of at most BLOCK_CELLS
cells (_rendered): a block may span tables of one column count and
line end, its float64 columns are formatted in one call, and its text
is handed on in one part per table it holds. A longer column, and
the cells of a keyed table, are formatted a block at a time into one
array (_joined), so they are never held twice. Rows of
the form "<window>,<cell>\\n", the window running on from row to row
and the cell that of a key (a train's bin, decode's voltage of a bin),
are built and parsed in blocks of about BLOCK_BYTES (256 KiB)
(keyed_rows, read_keyed_rows): each window digit column is a
short run of digits repeated, cut from one tiling of 0..9 per block,
with NUL for a leading zero, and a block's keys are read from the
digits that end its lines. A keyed cell holds its line break, and
rows fewer than the keys get cells for only the keys they hold (_table).

table_files turns a batch of tables, each (path, header, columns),
into one (path, chunks) file each: the rows of table 0, then of table
1, and so on, rendered in one pass of blocks (_rendered), whose runs
of parts are each table's chunks, so write_files writes the tables in
order with one output handle open. A column object that the batch
holds more than once is formatted once.
"""

from __future__ import annotations

import collections
import itertools
from typing import Optional

import numpy as np

# Cells per block of table_files' rows, and of the cells of a longer
# column or of a keyed table. Smaller blocks lose speed to numpy's
# per-call overhead; larger ones cost memory in proportion, 100-145 B a
# cell at the peak. stream_noisy's error report (95,926 rows of three
# floats, one process; 2 cores, Python 3.11.7, numpy 2.4.6; medians of
# 25) took 91 / 87 / 77 / 74 / 82 / 85 ms in blocks of 3,072 / 4,096 /
# 6,144 / 8,192 / 12,288 / 16,384 cells, at a tracemalloc peak of
# 0.26 / 0.36 / 0.52 / 0.67 / 1.02 / 1.32 MiB.
BLOCK_CELLS = 8 * 1024

# Bytes per block of keyed rows. Smaller blocks lose much of the speed
# to numpy's per-call overhead; larger ones cost memory in proportion.
# stream_noisy's 100,000-window train (2 cores, Python 3.11.7, numpy
# 2.4.6; medians of 6 processes) was written in 3.2 / 2.9 ms, and its
# decoded volts in 7.8 / 7.0 ms, at 64 / 256 KiB. Read back at 256 KiB
# it took 4.3 ms, against 5.2 ms at 64 KiB when keys were parsed from
# the commas (6.4 ms at 256 KiB).
BLOCK_BYTES = 1 << 18

def _texts(column: np.ndarray) -> np.ndarray:
    """The text of each cell of a numpy column as S items, the repr of its
    .tolist() item: a float's shortest round-trip repr or an integer's decimal."""
    return np.array(list(map(repr, column.tolist())), dtype="S")


_DIGITS = np.frombuffer(b"0123456789", np.uint8)
_POW10 = 10.0 ** np.arange(23)  # exact: 5**p < 2**53 for p <= 22
_IPOW10 = 10 ** np.arange(18, dtype=np.int64)


def _halves(a: np.ndarray):
    """Veltkamp's split of doubles into two of at most 26 bits each."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HALVES = _halves(_POW10)
_EXPONENT_BITS = np.int64(0x7FF << 52)


def _times_pow10(x: np.ndarray, p: np.ndarray):
    """x * 10**p exactly, as the double nearest it and the remainder
    (Dekker's product); no product or part here leaves float range."""
    hi = _POW10.take(p)
    hi *= x
    xh, xl = _halves(x)
    ph = _POW10_HALVES[0].take(p)
    lo = xh * ph
    lo -= hi
    pl = _POW10_HALVES[1].take(p)
    lo += np.multiply(xh, pl, out=xh)
    lo += np.multiply(xl, ph, out=ph)
    lo += np.multiply(xl, pl, out=pl)
    return hi, lo


def _shortest(x: np.ndarray):
    """The shortest decimal of each double x that reads back as x, with
    at least one place after the point: the significand sig, with no
    trailing zero after that place, and the count places >= 1 of places
    after the point, so that the decimal is sig * 10**-places. x is
    positive and in [1e-4, 1e16). Where two decimals of the shortest
    length are equally near x, tie is set and sig is not defined.

    x * 10**p, with p chosen to put it in [1e16, 1e17), is d + f for an
    integer d and 0 <= f < 1, exactly, and the midpoints between x and
    its neighbours lie half = spacing(x) * 10**p / 2 away on either
    side; spacing(x) is 2**-52 times x's exponent bits, read as a
    double. The decimals that read back as x are those strictly inside
    that gap. None that could be the shortest lies on its edge:
    d + f +- half is an odd multiple of 5**p * 2**(e + p - 1), for x's
    last mantissa bit 2**e, so it is an integer only where p = 1 and x
    is an integer (e = 0 or 1). There d + f = 10x, a multiple of 10, is
    nearer than any edge, and the edges, 10x +- 5 or 10x +- 10 with x
    even, are no multiples of 100. The shortest decimal is thus the
    multiple of 10**k nearest d + f, for the largest k such that a
    multiple of 10**k lies inside: for k >= 2 the gap, under 23 wide,
    holds at most one. k is capped at p - 1. Only an integer x has
    k >= p, since a non-integer's gap is narrower than its distance to
    the nearest integer; there d + f = x * 10**p exactly, so the capped
    sig is 10x, written x.0, as repr writes it. The float steps are
    exact wherever they decide: f, half and their sums are below 64 and
    multiples of 2**-47, so each is a double. A power of two's gap is
    narrower below it than taken here; TestFloatCells::test_edges checks
    all 67 in range, with both signs, against _texts.

    Each step writes into an array it no longer needs where it can, so
    a call's peak is about seven 8-byte arrays of the cells' length.
    """
    e = np.log10(x)
    np.floor(e, out=e)
    np.subtract(16, e, out=e)
    p = e.astype(np.int64)
    del e
    hi, lo = _times_pow10(x, p)
    if (hi >= 1e17).any() or (hi < 1e16).any():  # log10 rounded across a power of ten
        p -= hi >= 1e17
        p += hi < 1e16
        del hi, lo
        hi, lo = _times_pow10(x, p)
    d = hi.astype(np.int64)
    del hi
    whole = np.floor(lo)
    f = np.subtract(lo, whole, out=lo)
    d += whole.astype(np.int64)
    del whole
    half = (x.view(np.int64) & _EXPONENT_BITS).view(np.float64)
    half *= 2.0**-53
    half *= _POW10.take(p)
    # the integers strictly inside the gap are below + 1 .. top
    t = f - half
    np.floor(t, out=t)
    below = t.astype(np.int64)
    below += d
    np.add(f, half, out=t)
    del half
    np.ceil(t, out=t)
    top = t.astype(np.int64)
    del t
    top += d
    top -= 1
    # most cells stop at k = 1 or 2, so those run on every cell and
    # only the rest are picked out
    hundreds = top // 100 > below // 100
    zeros = (top // 10 > below // 10).astype(np.int64)
    zeros += hundreds
    live = np.flatnonzero(hundreds)
    top, below = top[live], below[live]
    for k in range(3, 18):
        inside = top // _IPOW10[k] > below // _IPOW10[k]
        live = live[inside]
        if not len(live):
            break
        zeros[live] = k
        top, below = top[inside], below[inside]
    np.minimum(zeros, p - 1, out=zeros)  # one place after the point at least
    unit = _IPOW10.take(zeros)
    sig = d // unit
    d -= sig * unit
    down = np.add(d, f, out=f)  # from the multiple below d + f
    del d
    up = unit - down
    del unit
    sig += up < down
    p -= zeros
    return sig, p, up == down


def _digit_table() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, zero padded, as one
    uint32, built by broadcasting alone, so import makes no temporaries."""
    table = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j in range(4):
        table[..., j] = _DIGITS.reshape([10 if k == j else 1 for k in range(4)])
    return table.reshape(10**4, 4).view(np.uint32)[:, 0]


_DIGITS4 = _digit_table()


def _digit_columns(sig: np.ndarray) -> np.ndarray:
    """The 20 ASCII digits of each sig < 10**20, zero padded, as an
    (n, 20) uint8 matrix: four digits of each of five groups."""
    groups = np.empty((len(sig), 5), np.uint32)
    q = sig
    for j in range(4, 0, -1):
        high = q // 10**4
        low = high * 10**4
        np.subtract(q, low, out=low)
        groups[:, j] = _DIGITS4.take(low)
        q = high
    groups[:, 0] = _DIGITS4.take(q)
    return groups.view(np.uint8)


def _float_cells(values: np.ndarray) -> np.ndarray:
    """The cells of a float64 column as NUL-padded S items: item i, its
    NULs dropped, is the text of values[i] (_texts).

    A cell in [1e-4, 1e16) is written from its shortest decimal
    (_shortest) in fixed notation, the form _texts gives there: a sign,
    the integer digits, a point and at least one fraction digit. The
    rows share one layout, NUL where a cell has no digit, and are
    filled in runs of equal place count, each a few slice copies.
    Every other cell, and a tie, goes through _texts: zero, NaN, +-inf
    and exponent notation.
    """
    x = np.abs(values)
    fixed = x >= 1e-4
    fixed &= x < 1e16
    at = np.flatnonzero(fixed)
    x = x[at]
    sig, places, tie = _shortest(x)
    if tie.any():
        fixed[at[tie]] = False
        keep = ~tie
        at, sig, places, x = at[keep], sig[keep], places[keep], x[keep]
    ints = len(str(int(x.max()))) if len(at) else 0  # digits before the point
    del x
    texts = _texts(values[~fixed])
    width = texts.itemsize
    if len(at):
        key = places.astype(np.uint8)  # 1..20; a stable sort of uint8 is a radix sort
        del places
        order = np.argsort(key, kind="stable")
        at, sig, key = at[order], sig[order], key[order]
        del order
        width = max(width, ints + int(key[-1]) + 2)
        digits = _digit_columns(sig)
        del sig
        rows = np.zeros((len(at), width), np.uint8)
        runs = np.flatnonzero(key[1:] != key[:-1]) + 1
        for lo, hi in zip([0, *runs.tolist()], [*runs.tolist(), len(at)]):
            s = int(key[lo])
            # digit column c of sig holds place 19 - c - s, which goes to
            # column ints - place before the point and ints + 1 - place
            # after it; first is the column of place ints - 1
            first = 20 - s - ints
            start = max(first, 0)
            rows[lo:hi, 1 + start - first:1 + ints] = digits[lo:hi, start:20 - s]
            rows[lo:hi, ints + 2:ints + 2 + s] = digits[lo:hi, 20 - s:]
        del digits, key
        leading = np.ones(len(at), bool)
        for c in range(1, ints):  # NUL for the zeros before a cell's first digit
            leading &= rows[:, c] <= ord("0")
            rows[:, c] *= ~leading
        np.maximum(rows[:, ints], ord("0"), out=rows[:, ints])  # the 0 of 0.xxx
        rows[:, ints + 1] = ord(".")
        if np.fmin.reduce(values) < 0:  # fmin passes over NaN
            rows[values[at] < 0, 0] = ord("-")
    out = np.empty(len(values), f"S{width}")  # each row one item, so one copy a cell
    if len(at):
        out[at] = rows.view(out.dtype)[:, 0]
    out[~fixed] = texts
    return out


def _table(keys: np.ndarray, top: int, values_of=None):
    """The cells rows of keys in 0..top are rendered from, each with its
    line break, key 0's empty and key k's its value's (_cells), and each
    key's index among them: of every key where the rows are more than
    top, else of key 0 and the keys held. values_of maps keys to values;
    by default a key is its own. The keys are mapped and formatted
    BLOCK_CELLS at a time into the table (_joined), so neither all the
    values nor a second copy of the cells is ever held."""
    every = top < len(keys)
    held = None if every else np.union1d(keys, 0)

    def cells_of(lo, hi):
        some = np.arange(lo + 1, hi + 1) if every else held[lo + 1:hi + 1]
        # np.add joins S items. A 100-bin train's cells, line break and
        # all, are 4-byte items, which numpy copies about 3x faster than
        # 3-byte ones.
        return np.add(_cells(some if values_of is None else values_of(some)), b"\n")

    table = _joined(top if every else len(held) - 1, cells_of, first=1)
    table[0] = b"\n"
    return table, keys if every else np.searchsorted(held, keys)


def _digit_column(lo: int, hi: int, place: int, cycle: np.ndarray) -> np.ndarray:
    """The ASCII digit at a place value of each window lo..hi-1.

    The digit holds for runs of place windows, so the column is the
    short run of the digits of the quotients lo // place ..
    (hi - 1) // place, cut from cycle, a tiling of 0..9 at least
    hi - lo + 9 long, with each digit repeated for the windows of its
    run that lie in lo..hi-1.
    """
    first, last = lo // place, (hi - 1) // place
    k = last - first + 1
    run = cycle[first % 10:first % 10 + k]
    if place == 1:  # one window per digit: the run is the column
        return run
    count = np.full(k, place)
    count[0] -= lo - first * place
    count[-1] -= (last + 1) * place - hi
    return run.repeat(count)


def render_rows(lo: int, table: np.ndarray, keys: np.ndarray) -> bytes:
    """The bytes of rows lo.., row i holding window lo + i in decimal, a
    comma and cell keys[i] of table (_table), with its line break: a
    byte matrix of those columns, NUL for a leading zero, less its NULs."""
    n = len(keys)
    hi = lo + n
    digits = len(str(hi - 1))
    rows = np.empty((n, digits + 1 + table.itemsize), np.uint8)
    cycle = np.tile(_DIGITS, n // 10 + 2)  # one tiling for every column's run
    for j in range(digits):
        place = 10 ** (digits - 1 - j)
        rows[:, j] = _digit_column(lo, hi, place, cycle)
        if place > 1:  # no leading zeros; window 0 is written "0"
            rows[:max(0, min(place, hi) - lo), j] = 0
    rows[:, digits] = ord(",")
    rows[:, digits + 1:].view(table.dtype)[:, 0] = table.take(keys)
    return rows.tobytes().translate(None, b"\0")


def keyed_rows(header: bytes, keys: np.ndarray, top: int, values_of=None):
    """Yield header, then row i as window i and the cell of keys[i], in
    blocks of about BLOCK_BYTES; see _table for top and values_of."""
    yield header
    table, keys = _table(keys, top, values_of)
    step = max(1, BLOCK_BYTES // (len(str(len(keys))) + 1 + table.itemsize))
    for lo in range(0, len(keys), step):
        yield render_rows(lo, table, keys[lo:lo + step])


def _parse_keys(block: bytes, top: int) -> Optional[np.ndarray]:
    """The decimal in the run of at most len(str(top)) digits that ends
    each line of block (0 where there is none), or None when a key is
    above top. Nothing else is checked, not even the comma before the
    run: a block is proved by rendering it again."""
    a = np.frombuffer(block, np.uint8)
    at = np.flatnonzero(a == ord("\n"))
    keys = np.zeros(len(at), np.int64)
    live = np.ones(len(at), bool)  # every byte so far back from the line end is a digit
    for j in range(len(str(top))):
        at -= 1
        digit = a.take(at, mode="clip")  # before the block's start, its first byte
        digit -= ord("0")  # a byte that is no digit wraps to 10 or more
        live &= digit < 10
        digit *= live
        keys += np.multiply(digit, 10**j, dtype=np.int64)
    if keys.max() > top:
        return None
    return keys


def read_keyed_rows(fh, header: bytes, top: int, rows: int) -> Optional[np.ndarray]:
    """The keys of a file that keyed_rows wrote with this header
    and keys 0..top, each its own value; None as soon as the file
    differs from such a file in any byte, or holds more than rows rows.

    fh is a binary handle. It is read in blocks cut at line ends; each
    block's keys are parsed with array arithmetic from its line ends
    alone, checked against top, and the block is proved by rendering
    those keys again from _table's cells, which checks the window
    column, the comma and both cells of each row.
    The keys fill one array of rows keys, so rows must be one the file
    can hold: a caller that takes it from elsewhere bounds it first.
    """
    if fh.readline() != header:
        return None
    whole = None
    out = np.empty(rows, np.int64)
    lo = 0
    rest = b""
    while data := fh.read(BLOCK_BYTES):
        block = rest + data
        cut = block.rfind(b"\n") + 1
        if not cut:
            return None  # a line longer than a block is no written row
        block, rest = block[:cut], block[cut:]
        keys = _parse_keys(block, top)
        if keys is None or lo + len(keys) > rows:
            return None
        table, index = (whole, keys) if whole is not None and top < len(keys) else _table(keys, top)
        if top < len(keys):
            whole = table  # the cells of every key, built once
        if render_rows(lo, table, index) != block:
            return None
        out[lo:lo + len(keys)] = keys
        lo += len(keys)
    if rest:
        return None  # the last row has no line break
    return out[:lo]


def _joined(n: int, cells_of, first: int = 0) -> np.ndarray:
    """Cells 0..n-1 as one NUL-padded S array, after first empty items;
    cells_of(lo, hi) gives cells lo..hi-1, and is called for BLOCK_CELLS
    of them at a time, so a long column's temporaries stay small.

    The array takes the width of the first block. A wider block widens
    it in place: its buffer grows (ndarray.resize, a realloc) and the
    items filled so far are moved apart, last first, a block at a time,
    so the cells are never held twice."""
    buf, width = np.zeros(0, np.uint8), 0
    for lo in range(0, max(1, n), BLOCK_CELLS):
        cells = cells_of(lo, min(n, lo + BLOCK_CELLS))
        if cells.itemsize > width:
            old, width = width, cells.itemsize
            buf.resize((first + n) * width, refcheck=False)  # no view of buf outlives a statement
            if old:
                for hi in range(first + lo, 0, -BLOCK_CELLS):
                    a = max(0, hi - BLOCK_CELLS)
                    moved = buf[a * old:hi * old].copy()  # it may overlap where it goes
                    buf[a * width:hi * width].view(f"S{width}")[:] = moved.view(f"S{old}")
        buf.view(f"S{width}")[first + lo:first + lo + len(cells)] = cells
    return buf.view(f"S{width}")


def _cells(column: np.ndarray) -> np.ndarray:
    """The cells of a numpy column as NUL-padded S items: an S column as
    it is, a float64 one from _float_cells, in blocks (_joined) when it
    is longer than BLOCK_CELLS, any other from _texts."""
    if column.dtype.kind == "S":
        return column
    if column.dtype != np.float64:
        return _texts(column)
    if len(column) <= BLOCK_CELLS:
        return _float_cells(column)
    return _joined(len(column), lambda lo, hi: _float_cells(column[lo:hi]))


def _blocks(tables):
    """The rows of tables cut into blocks, each a list of (t, a, b)
    pieces, rows a..b-1 of table t: runs of rows with one column count
    and line end, BLOCK_CELLS cells at most unless a single row holds
    more. A table with no rows is in no block."""
    block, rows, layout = [], 0, None
    for t, (_, _, columns, eol) in enumerate(tables):
        cap = max(1, BLOCK_CELLS // len(columns))
        a, b = 0, len(columns[0])
        while a < b:
            if rows == cap or block and layout != (len(columns), eol):
                yield block
                block, rows = [], 0
            layout = (len(columns), eol)
            c = min(b, a + cap - rows)
            block.append((t, a, c))
            rows += c - a
            a = c
    if block:
        yield block


def _rendered(tables):
    """(t, bytes) for the rows of each table t, in order, one part for
    each piece of a block (_blocks), each row its cells joined by commas
    and ended by the table's line end. A block's float64 columns are
    formatted in one _cells call, so a block of many short tables costs
    about what one long table does. No cell of a column the package
    writes is longer than 24 bytes (a float64's repr; an int64's takes
    20), so a part, a block's rows less their NULs, holds at most about
    213 KB."""
    for block in _blocks(tables):
        eol = tables[block[0][0]][3].encode()
        n = sum(b - a for _, a, b in block)
        # each column's parts, one per piece
        by_column = list(zip(*[[c[a:b] for c in tables[t][2]] for t, a, b in block]))
        floats = [j for j, parts in enumerate(by_column) if all(p.dtype == np.float64 for p in parts)]
        cols = [None] * len(by_column)
        if floats:
            texts = _cells(np.concatenate([p for j in floats for p in by_column[j]]))
            for i, j in enumerate(floats):
                cols[j] = texts[i * n:(i + 1) * n]
            del texts
        cols = [np.concatenate([_cells(p) for p in parts]) if c is None else c
                for c, parts in zip(cols, by_column)]
        seps = [b","] * (len(cols) - 1) + [eol]
        rows = np.empty((n, sum(c.itemsize + len(s) for c, s in zip(cols, seps))), np.uint8)
        at = 0
        for c, s in zip(cols, seps):
            rows[:, at:at + c.itemsize].view(c.dtype)[:, 0] = c
            at += c.itemsize
            rows[:, at:at + len(s)] = np.frombuffer(s, np.uint8)
            at += len(s)
        del cols, c  # the cells are in rows now
        lo = 0
        for t, a, b in block:
            yield t, rows[lo:lo + b - a].tobytes().translate(None, b"\0")
            lo += b - a
        del rows  # not held while the next block is formatted


def table_files(tables) -> list:
    """One (path, chunks) file of _atomic.write_files for each
    (path, header, columns) table: header, then for each row the text
    of each column's item (_texts), joined by commas and ended by the
    header's own line end (\\r\\n or \\n).

    The columns are numpy arrays, all of one table's of equal length.
    A column object that the batch holds more than once is formatted
    once, here, before any row. The chunks are lazy runs of one pass
    over the batch's blocks, so each file's must be read in full, in
    order, before the next file's: write_files writes them so.
    """
    tables = [(path, header, list(columns), "\r\n" if header.endswith("\r\n") else "\n")
              for path, header, columns in tables]
    # Every column is held in a list from here on, so no two share an id.
    held = collections.Counter(id(c) for _, _, columns, _ in tables for c in columns)
    shared = {id(c): c for _, _, columns, _ in tables for c in columns if held[id(c)] > 1}
    formatted = {i: _cells(c) for i, c in shared.items()}
    for _, _, columns, _ in tables:
        columns[:] = [formatted.get(id(c), c) for c in columns]
    parts = itertools.groupby(_rendered(tables), key=lambda part: part[0])

    def chunks(header, rows):
        yield header.encode()
        if rows:  # the next run of parts is this table's
            yield from (data for _, data in next(parts)[1])

    return [(path, chunks(header, len(columns[0]))) for path, header, columns, _ in tables]
