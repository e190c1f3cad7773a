"""Atomic file output shared by every writer in the package, and the
JSON sidecar writer built on it."""

from __future__ import annotations

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_write(path: str):
    """Yield a text handle on a temporary file next to path.

    On a clean exit the file replaces path in one step, so readers see
    either the old file or the complete new one. If the body raises,
    the temporary file is removed and path is left as it was.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path: str, doc: dict) -> None:
    """Write doc atomically as indented JSON with sorted keys and a
    final newline, the layout of every JSON file the package writes;
    Infinity and NaN, which strict JSON lacks, are a ValueError."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
