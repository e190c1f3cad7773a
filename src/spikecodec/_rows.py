"""CSV rows, written and read in fixed chunks so memory stays flat
whatever the file length.

This module alone decides how a number becomes text: a cell is the
repr of its column's .tolist() item (_texts), so callers hand over
numpy arrays, never text, and no cell ever needs quoting. Tables are
formatted CHUNK_ROWS rows at a time (write_tables): a chunk is one list
of the separators repeated row after row with a slot before each, each
column fills its slots with one slice assignment of its texts, and the
list is joined once, so the float repr is the whole cost. Rows of the
form "<window>,<cell>\\n", the window running on from row to row and
the cell that of a key (a train's bin, decode's voltage of a bin), are
built and parsed in blocks of about BLOCK_BYTES bytes as numpy byte
matrices instead (write_keyed_rows, read_keyed_rows): the cells are S
items, which numpy pads with NUL (cells), each window digit column is a
short run of digits repeated, with NUL for a leading zero, and no
written byte is NUL, so dropping every NUL leaves the rows. Rows fewer
than the keys get cells for only the keys they hold (_table).

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


def _texts(column: np.ndarray):
    """The text of each cell of a numpy column, the repr of its .tolist()
    item: a float's shortest round-trip repr or an integer's decimal."""
    return map(repr, column.tolist())


def cells(values: np.ndarray) -> np.ndarray:
    """The cells of keys 0..N, key 0's empty and key k's the text of
    values[k - 1], each ended by a line break, as S items padded with NUL."""
    return np.array(["\n", *(text + "\n" for text in _texts(values))], dtype="S")


def _table(keys: np.ndarray, top: int, values_of=None):
    """The cells that rows of keys in 0..top are rendered from and the
    index of each key's cell: the cells of every key where the rows are
    more than top, else of key 0 and the keys held. values_of maps an
    array of keys to their values; without it a key is its own value."""
    held = np.arange(top + 1) if top < len(keys) else np.union1d(keys, 0)
    values = held[1:] if values_of is None else values_of(held[1:])
    return cells(values), keys if top < len(keys) else np.searchsorted(held, keys)


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


def render_rows(lo: int, table: np.ndarray, keys: np.ndarray) -> bytes:
    """The bytes of rows lo.., row i holding window lo + i in decimal, a
    comma and cell keys[i] of table (cells()): a (rows, width) byte
    matrix of window digits, NUL for a leading zero, a comma and the
    gathered cells, less its NULs."""
    n = len(keys)
    hi = lo + n
    digits = len(str(hi - 1))
    rows = np.empty((n, digits + 1 + table.itemsize), np.uint8)
    for j in range(digits):
        place = 10 ** (digits - 1 - j)
        rows[:, j] = _digit_column(lo, hi, place)
        if place > 1:  # no leading zeros; window 0 is written "0"
            rows[:max(0, min(place, hi) - lo), j] = 0
    rows[:, digits] = ord(",")
    rows[:, digits + 1:].view(table.dtype)[:, 0] = table.take(keys)
    return rows.tobytes().replace(b"\0", b"")


def write_keyed_rows(fh, header: bytes, keys: np.ndarray, top: int, values_of=None) -> None:
    """Write header, then row i as window i and the cell of keys[i], to
    the binary handle fh; see _table for top and values_of."""
    fh.write(header)
    table, keys = _table(keys, top, values_of)
    n = len(keys)
    step = max(1, BLOCK_BYTES // (len(str(n)) + 1 + table.itemsize))
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


def read_keyed_rows(fh, header: bytes, top: int) -> Optional[np.ndarray]:
    """The keys of a file that write_keyed_rows wrote with this header
    and keys 0..top, each its own value; None as soon as the file
    differs from such a file in any byte.

    fh is a binary handle. It is read in blocks cut at line ends; each
    block's keys are parsed with array arithmetic and the block is
    proved by rendering those keys again from _table's cells, which
    checks the window column, both cells of each row and the key range.
    """
    if fh.readline() != header:
        return None
    whole = None
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
        if keys is None:
            return None
        table, index = (whole, keys) if whole is not None and top < len(keys) else _table(keys, top)
        if top < len(keys):
            whole = table  # the cells of every key, built once
        if render_rows(lo, table, index) != block:
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
    cells are its _texts, or a list of its cells."""
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
            buf[2 * j::2 * m] = part if isinstance(part, list) else _texts(part)
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
    then for each row the text of each column's item (_texts), joined
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
    shared = {id(c): c for _, _, columns, _ in tables for c in columns if held[id(c)] > 1}
    text = {i: list(_texts(c)) for i, c in shared.items()}
    for _, _, columns, _ in tables:
        columns[:] = [text.get(id(c), c) for c in columns]
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

