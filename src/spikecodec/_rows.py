"""CSV rows, written and read in fixed chunks so memory stays flat
whatever the file length.

The files hold plain numbers, so no cell ever needs quoting. Rows of
floats are formatted with str methods CHUNK_ROWS rows at a time
(write_rows); the float repr is their cost. Rows of the form
"<window>,<cell>\\n", with the window running on from row to row and
the cell an entry of a small table (a train's bin strings, decode's
voltage reprs), are built and parsed as numpy byte arrays instead, one
block of at most about BLOCK_BYTES bytes at a time (write_keyed_rows,
read_keyed_rows). read_pairs is the per-row reader of two-column
files, which names the first bad row of a file the byte path rejects.

write_rows splits a file of at least 2 * FORK_ROWS rows into
contiguous shares, one per usable CPU and each of at least FORK_ROWS
rows. Share 0 is formatted in this process; each other share is
formatted by a forked child into an anonymous temporary file that the
parent appends to the output once the child has exited. Rows are
independent and a float's repr is the same in every process, so the
bytes do not depend on the share count. The child is fork-safe because
it does nothing else: it formats its share, writes and flushes its own
file and leaves through os._exit, so it never flushes the buffered
text of the handle it inherited, never runs the caller's cleanup (an
atomic_write would remove the parent's temporary file) and never runs
atexit handlers. On Python 3.12 and later os.fork warns
(DeprecationWarning) when the process has other threads, which numpy's
BLAS pool starts in every numpy process; the default warning filters
hide it outside __main__. Where os.fork does not exist, or a file is
too short for two shares, every row is formatted in this process.
"""

from __future__ import annotations

import os
import signal
import tempfile
from itertools import islice
from typing import Optional

import numpy as np

# Rows formatted or parsed per step by write_rows and read_pairs.
# Larger chunks buy little speed and cost memory in proportion.
CHUNK_ROWS = 1024

# Bytes per block of keyed rows. Smaller blocks lose much of the speed
# to numpy's per-call overhead; larger ones cost memory in proportion.
BLOCK_BYTES = 1 << 16

# Fewest rows write_rows gives one process. Shorter shares would spend
# a fair part of their time on the fork, which costs a few ms.
FORK_ROWS = 16 * CHUNK_ROWS


class CellTable:
    """Cells as a padded uint8 matrix, each cell followed by a line
    break, and a matching mask of the bytes each cell holds."""

    def __init__(self, cells) -> None:
        raw = [c.encode("ascii") + b"\n" for c in cells]
        self.width = max(map(len, raw))
        self.bytes = np.array(raw, dtype=f"S{self.width}").view(np.uint8).reshape(len(raw), -1)
        self.keep = np.arange(self.width) < np.array([len(r) for r in raw])[:, None]

    def __len__(self) -> int:
        return len(self.bytes)


def render_rows(lo: int, table: CellTable, keys: np.ndarray) -> bytes:
    """The bytes of rows f"{lo + i},{cells[keys[i]]}\\n" for each i.

    The window digits are computed column by column into a (rows,
    width) byte matrix next to the gathered cells, and a mask of each
    row's digit and cell lengths compacts the matrix into the rows.
    """
    n = len(keys)
    windows = np.arange(lo, lo + n)
    places = 10 ** np.arange(len(str(lo + n - 1)) - 1, -1, -1)
    digits = len(places)
    rows = np.empty((n, digits + 1 + table.width), np.uint8)
    keep = np.empty(rows.shape, bool)
    for j, place in enumerate(places):
        rows[:, j] = windows // place % 10 + ord("0")
        keep[:, j] = windows >= place
    keep[:, digits - 1] = True  # window 0 is written "0"
    rows[:, digits] = ord(",")
    keep[:, digits] = True
    rows[:, digits + 1:] = table.bytes.take(keys, axis=0)
    keep[:, digits + 1:] = table.keep.take(keys, axis=0)
    return rows[keep].tobytes()


def write_keyed_rows(fh, header: str, table: CellTable, keys: np.ndarray) -> None:
    """Write header, then row i as window i and cell keys[i] of table."""
    fh.write(header)
    n = len(keys)
    step = max(1, BLOCK_BYTES // (len(str(n)) + 1 + table.width))
    for lo in range(0, n, step):
        fh.write(render_rows(lo, table, keys[lo:lo + step]).decode("ascii"))


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
    and table, where cell k is k in decimal and cell 0 may be empty;
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
    """How many processes write_rows splits n rows across: one per
    usable CPU, with at least FORK_ROWS rows in each."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(usable_cpus(), n // FORK_ROWS))


def _format_rows(fh, fmt: str, columns, lo: int, hi: int) -> None:
    """Write fmt.format(*cells) for rows lo..hi-1, CHUNK_ROWS at a time.
    Array cells go through .tolist(), so floats format as Python floats."""
    for start in range(lo, hi, CHUNK_ROWS):
        parts = [c[start:min(start + CHUNK_ROWS, hi)] for c in columns]
        parts = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
        fh.writelines(map(fmt.format, *parts))


def _child(out, fmt: str, columns, lo: int, hi: int) -> None:
    """In a forked child: format rows lo..hi-1 into out and exit, 0 on
    success; on any failure out holds the failure and the status is 1."""
    code = 1
    try:
        try:
            _format_rows(out, fmt, columns, lo, hi)
            out.flush()
            code = 0
        except BaseException as exc:  # not re-raised: it would unwind into the caller's code
            out.seek(0)
            out.truncate()
            out.write(f"{type(exc).__name__}: {exc}")
            out.flush()
    finally:
        os._exit(code)


def write_rows(fh, header: str, fmt: str, *columns) -> None:
    """Write header, then fmt.format(*cells) for each row.

    Each column is a numpy array or a range of equal length. Array
    cells go through .tolist(), so floats format as Python floats
    ({!r} gives their shortest round-trip repr). The rows are split
    across share_count(n) processes (see the module docstring); a share
    that fails in its child is an OSError that names the failure. No
    child process or temporary file outlives the call.
    """
    fh.write(header)
    n = len(columns[0])
    k = share_count(n)
    bounds = [n * i // k for i in range(k + 1)]
    files, pids = [], []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            files.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            pid = os.fork()
            if pid == 0:
                _child(files[-1], fmt, columns, lo, hi)
            pids.append(pid)
        _format_rows(fh, fmt, columns, bounds[0], bounds[1])
        for lo, hi, out in zip(bounds[1:-1], bounds[2:], files):
            pid = pids[0]
            status = os.waitpid(pid, 0)[1]
            del pids[0]  # reaped, so no longer the finally's to kill
            out.seek(0)
            code = os.waitstatus_to_exitcode(status)
            if code:
                why = f"exit status {code}" if code > 0 else f"signal {-code}"
                raise OSError(f"formatting rows {lo}..{hi - 1} in child process {pid} "
                              f"failed ({why}): {out.read(BLOCK_BYTES) or 'no message'}")
            while block := out.read(BLOCK_BYTES):
                fh.write(block)
    finally:
        for pid in pids:  # not reaped yet, so the pid is still this child's
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for out in files:
            out.close()


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
