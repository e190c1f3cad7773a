"""CSV rows, written and read in fixed chunks so memory stays flat
whatever the file length.

This module alone decides how a number becomes text: a cell is the
repr of its column's .tolist() item (a float's shortest round-trip
repr, an integer's decimal), so callers hand over numpy arrays, never
text, and no cell ever needs quoting. Tables are formatted CHUNK_ROWS
rows at a time (write_tables): a chunk is one list of the separators
repeated row after row with a slot before each, each column fills its
slots with one slice assignment of map(repr, ...), and the list is
joined once, so the float repr is the whole cost. Rows of the form
"<window>,<cell>\\n", with the window running on from row to row and
the cell an entry of a small table (a train's bins, decode's
voltages), are built and parsed as numpy byte arrays instead, in
blocks of about BLOCK_BYTES bytes (write_keyed_rows, read_keyed_rows):
a window digit is the same for runs of windows, so each digit column
is a short run of digits repeated, with no division per window.

write_tables writes a batch of tables, each (path, header, columns)
and one file, as one row space: the rows of table 0, then of table 1,
and so on. A column object that the batch holds more than once is
formatted once, in this process, before any share forks. A batch of
at least 2 * FORK_ROWS rows is split into contiguous shares, one per
usable CPU and each of at least FORK_ROWS rows; a share may begin or
end inside a table. Share 0 is formatted in this process; each other
share is formatted by a forked child into an anonymous temporary
file, followed by the byte offset at which each of its tables' pieces
ends. The parent writes the tables in order, formatting its own
pieces and copying each child's pieces in blocks once that child has
exited. Rows are independent and a float's repr is the same in every
process, so the bytes do not depend on the share count. Every table
goes to a temporary file next to its path (_atomic.atomic_write), and
no path is replaced before the whole batch is written, so a failed
batch leaves every path as it was.

The child is fork-safe because it does nothing else: it formats its
share, writes and flushes its own file and leaves through os._exit, so
it never flushes the buffered text of a handle it inherited, never
runs the caller's cleanup and never runs atexit handlers. The children
are forked before any output file is opened. On Python 3.12 and later
os.fork warns (DeprecationWarning) when the process has other threads,
which numpy's BLAS pool starts in every numpy process; the default
warning filters hide it outside __main__. Where os.fork does not
exist, or a batch is too short for two shares, every row is formatted
in this process.
"""

from __future__ import annotations

import collections
import contextlib
import os
import signal
import tempfile
from typing import Optional

import numpy as np

from ._atomic import atomic_write

# Rows formatted per step by write_tables.
# Larger chunks buy little speed and cost memory in proportion.
CHUNK_ROWS = 1024

# Bytes per block of keyed rows. Smaller blocks lose much of the speed
# to numpy's per-call overhead; larger ones cost memory in proportion.
BLOCK_BYTES = 1 << 16

# Fewest rows write_tables gives one process. Measured on 2 cores
# (Python 3.11, numpy 2.4): fork plus wait costs 3.5-9 ms, median about
# 5 ms, and one row of three floats 4.2-5 us, so a child's share pays
# for its fork from about 1,000-2,000 rows. 4 * CHUNK_ROWS keeps every
# share two to four times past that, and splits sweep-constant's 3 x
# 4,096 rows and sft-sweep's 64 x 128 + 64 rows on 2 CPUs.
FORK_ROWS = 4 * CHUNK_ROWS


class CellTable:
    """The cells of keys 0..N, key 0's empty and key k's the repr of
    values[k - 1], as one item of width bytes each, each cell followed
    by a line break and padded, and a matching mask of the bytes each
    cell holds. An item is a numpy void, so a gather copies whole cells."""

    def __init__(self, values: np.ndarray) -> None:
        raw = [b"\n", *(repr(v).encode("ascii") + b"\n" for v in values.tolist())]
        self.width = max(map(len, raw))
        self.bytes = np.array(raw, dtype=f"S{self.width}").view(f"V{self.width}")
        keep = np.arange(self.width) < np.array([len(r) for r in raw])[:, None]
        self.keep = keep.view(f"V{self.width}")[:, 0]

    def __len__(self) -> int:
        return len(self.bytes)


_DIGITS = np.frombuffer(b"0123456789", np.uint8)


def _digit_column(lo: int, hi: int, place: int) -> np.ndarray:
    """The ASCII digit at a place value of each window lo..hi-1.

    The digit holds for runs of place windows, so the column is the
    short run of the digits of the quotients lo // place ..
    (hi - 1) // place, cut from a tiling of 0..9, with each digit
    repeated for the windows of its run that lie in lo..hi-1.
    """
    first, last = lo // place, (hi - 1) // place
    k = last - first + 1
    run = np.tile(_DIGITS, k // 10 + 2)[first % 10:first % 10 + k]
    if place == 1:  # one window per digit: the run is the column
        return run
    count = np.full(k, place)
    count[0] -= lo - first * place
    count[-1] -= (last + 1) * place - hi
    return run.repeat(count)


def render_rows(lo: int, table: CellTable, keys: np.ndarray) -> bytes:
    """The bytes of rows f"{lo + i},{cells[keys[i]]}\\n" for each i.

    The window digits are computed column by column into a (rows,
    width) byte matrix next to the gathered cells, and a mask of each
    row's digit and cell lengths compacts the matrix into the rows.
    """
    n = len(keys)
    hi = lo + n
    digits = len(str(hi - 1))
    rows = np.empty((n, digits + 1 + table.width), np.uint8)
    keep = np.ones(rows.shape, bool)
    for j in range(digits):
        place = 10 ** (digits - 1 - j)
        rows[:, j] = _digit_column(lo, hi, place)
        if place > 1:  # no leading zeros; window 0 is written "0"
            keep[:max(0, min(place, hi) - lo), j] = False
    rows[:, digits] = ord(",")
    cell = slice(digits + 1, None)
    rows[:, cell].view(table.bytes.dtype)[:, 0] = table.bytes.take(keys)
    keep[:, cell].view(table.keep.dtype)[:, 0] = table.keep.take(keys)
    return rows[keep].tobytes()


def write_keyed_rows(fh, header: bytes, table: CellTable, keys: np.ndarray) -> None:
    """Write header, then row i as window i and cell keys[i] of table,
    to the binary handle fh."""
    fh.write(header)
    n = len(keys)
    step = max(1, BLOCK_BYTES // (len(str(n)) + 1 + table.width))
    for lo in range(0, n, step):
        fh.write(render_rows(lo, table, keys[lo:lo + step]))


def _parse_keys(block: bytes, top: int) -> Optional[np.ndarray]:
    """The decimal in the last bytes after the comma of each line of
    block (0 where there are none), or None when the block holds more
    or fewer commas than line ends, or a key outside 0..top. Nothing
    else is checked: a block is proved by rendering it again."""
    a = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    commas = np.flatnonzero(a == ord(","))
    if len(commas) != len(ends):
        return None
    lengths = ends - commas - 1
    keys = np.zeros(len(ends), np.int64)
    for j in range(1, len(str(top)) + 1):  # the j-th byte before each line end
        digit = a.take(ends - j, mode="clip").astype(np.int64) - ord("0")
        keys += np.where(lengths >= j, digit, 0) * 10 ** (j - 1)
    if keys.min() < 0 or keys.max() > top:
        return None
    return keys


def read_keyed_rows(fh, header: bytes, table: CellTable) -> Optional[np.ndarray]:
    """The keys of a file that write_keyed_rows wrote with this header
    and table, where cell k is k in decimal;
    None as soon as the file differs from such a file in any byte.

    fh is a binary handle. It is read in blocks cut at line ends; each
    block's keys are parsed with array arithmetic and the block is
    proved by rendering those keys again and comparing bytes, which
    checks the window column, the two cells of each row and the key
    range in one step.
    """
    if fh.readline() != header:
        return None
    top = len(table) - 1
    chunks = []
    lo = 0
    rest = b""
    while data := fh.read(BLOCK_BYTES):
        block = rest + data
        cut = block.rfind(b"\n") + 1
        if not cut:
            return None  # a line longer than a block is no written row
        block, rest = block[:cut], block[cut:]
        keys = _parse_keys(block, top)
        if keys is None or render_rows(lo, table, keys) != block:
            return None
        chunks.append(keys)
        lo += len(keys)
    if rest:
        return None  # the last row has no line break
    return np.concatenate(chunks) if chunks else np.zeros(0, np.int64)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def share_count(n: int) -> int:
    """How many processes write_tables splits n rows across: one per
    usable CPU, with at least FORK_ROWS rows in each."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(usable_cpus(), n // FORK_ROWS))


def _format_rows(out, columns, eol: str, lo: int, hi: int) -> None:
    """Write rows lo..hi-1 of columns, cells joined by commas and each
    row ended by eol, to the binary handle out, CHUNK_ROWS rows at a
    time (see the module docstring). A column is a numpy array, whose
    cells are the reprs of its .tolist() items, or a list of its cells."""
    m = len(columns)
    row = [None, ","] * m
    row[-1] = eol
    buf = []
    for start in range(lo, hi, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, hi)
        if len(buf) != 2 * m * (stop - start):
            buf = row * (stop - start)
        for j, c in enumerate(columns):
            part = c[start:stop]
            buf[2 * j::2 * m] = part if isinstance(part, list) else map(repr, part.tolist())
        out.write("".join(buf).encode())


def _pieces(starts: list, lo: int, hi: int) -> list:
    """(table, first row, end row) of every table's rows that fall in
    rows lo..hi-1 of the whole batch, in order; starts[t] is the batch
    row of table t's first row. Tables with no rows there are left out."""
    pieces = []
    for t, (first, end) in enumerate(zip(starts, starts[1:])):
        a, b = max(lo, first), min(hi, end)
        if a < b:
            pieces.append((t, a - first, b - first))
    return pieces


def _child(out, tables, pieces) -> None:
    """In a forked child: format pieces into out, then their end
    offsets as int64, and exit 0; on any failure out holds the failure
    and the status is 1."""
    code = 1
    try:
        try:
            ends = []
            for t, a, b in pieces:
                _format_rows(out, *tables[t][2:], a, b)
                ends.append(out.tell())
            out.write(np.array(ends, np.int64).tobytes())
            out.flush()
            code = 0
        except BaseException as exc:  # not re-raised: it would unwind into the caller's code
            out.seek(0)
            out.truncate()
            out.write(f"{type(exc).__name__}: {exc}".encode(errors="replace"))
            out.flush()
    finally:
        os._exit(code)


def _reap(pids: dict, s: int, out, lo: int, hi: int, count: int) -> list:
    """Wait for the child pids[s], which formatted rows lo..hi-1 into
    out as count pieces, and return the end offset of each piece, with
    out rewound; a failed child is an OSError that names its rows."""
    status = os.waitpid(pids[s], 0)[1]
    pid = pids.pop(s)  # reaped, so no longer write_tables' to kill
    code = os.waitstatus_to_exitcode(status)
    if code:
        out.seek(0)
        why = f"exit status {code}" if code > 0 else f"signal {-code}"
        message = out.read(BLOCK_BYTES).decode(errors="replace") or "no message"
        raise OSError(f"formatting rows {lo}..{hi - 1} in child process {pid} "
                      f"failed ({why}): {message}")
    out.seek(-8 * count, os.SEEK_END)
    ends = np.frombuffer(out.read(8 * count), np.int64).tolist()
    out.seek(0)
    return ends


def write_tables(tables) -> None:
    """Write each (path, header, columns) table to its path: header,
    then for each row the repr of each column's .tolist() item, joined
    by commas and ended by the header's own line end (\\r\\n or \\n).

    The columns are numpy arrays, all of one table's of equal length.
    A column object that the batch holds more than once is formatted
    once, here, before any share forks. The rows of all the tables are
    one row space, split across share_count(n) processes (see the
    module docstring). The batch is all or nothing: no path is
    replaced before every share has succeeded, and a share that fails
    in its child is an OSError that names the failure. No output,
    temporary file or child process outlives a failed call, and no
    child process or temporary file outlives any call.
    """
    tables = [(path, header, list(columns), "\r\n" if header.endswith("\r\n") else "\n")
              for path, header, columns in tables]
    # Every column is held in a list from here on, so no two share an id.
    held = collections.Counter(id(c) for _, _, columns, _ in tables for c in columns)
    text = {}
    for _, _, columns, _ in tables:
        for j, c in enumerate(columns):
            if held[id(c)] > 1:
                if id(c) not in text:
                    text[id(c)] = list(map(repr, c.tolist()))
                columns[j] = text[id(c)]
    starts = [0]
    for _, _, columns, _ in tables:
        starts.append(starts[-1] + len(columns[0]))
    n = starts[-1]
    k = share_count(n)
    bounds = [n * i // k for i in range(k + 1)]
    shares = [_pieces(starts, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    by_table = [[] for _ in tables]
    for s, pieces in enumerate(shares):
        for t, a, b in pieces:
            by_table[t].append((s, a, b))
    files, pids = [], {}  # pids: share -> child not reaped yet
    try:
        for s in range(1, k):
            files.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                _child(files[-1], tables, shares[s])
            pids[s] = pid
        current = 0
        with contextlib.ExitStack() as outputs:
            for (path, header, columns, eol), pieces in zip(tables, by_table):
                fh = outputs.enter_context(atomic_write(path, "wb"))
                fh.write(header.encode())
                for s, a, b in pieces:
                    if s == 0:
                        _format_rows(fh, columns, eol, a, b)
                        continue
                    if s != current:  # the first piece of share s
                        current, out, start = s, files[s - 1], 0
                        ends = iter(_reap(pids, s, out, bounds[s], bounds[s + 1], len(shares[s])))
                    left = next(ends) - start
                    start += left
                    while left > 0 and (block := out.read(min(BLOCK_BYTES, left))):
                        fh.write(block)
                        left -= len(block)
                fh.close()
    finally:
        for pid in pids.values():  # not reaped yet, so the pid is still this child's
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for tmp in files:
            tmp.close()

