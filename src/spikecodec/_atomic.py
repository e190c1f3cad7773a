"""Atomic file output shared by every writer in the package, the JSON
writer built on it, and the two rules of the files a later stage reads
back: how a JSON file is read, and where a CSV's JSON sidecar lives."""

from __future__ import annotations

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Yield a handle on a temporary file next to path, opened in mode
    ("w" for text without newline translation, "wb" for bytes).

    On a clean exit the file replaces path in one step, so readers see
    either the old file or the complete new one. If the body raises,
    the temporary file is removed and path is left as it was. The body
    may close the handle early; the file still replaces path only when
    the body exits cleanly, so several of these in one ExitStack
    replace their paths only once every file is complete. A temporary
    file that cannot be opened (a missing directory) or cannot replace
    path (a directory at path) is an OSError that names path alone.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        fh = open(tmp, mode, newline=None if "b" in mode else "")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
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


def read_json(path: str):
    """The JSON document in path; a file that does not parse is a
    ValueError that names it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8 text
            raise ValueError(f"{path}: not a JSON file ({exc})") from None


def sidecar_path(csv_path: str) -> str:
    """The JSON sidecar of csv_path: the path with its extension
    replaced by .json. A path that would be its own sidecar, such as
    t.json, is a ValueError: the sidecar would replace it."""
    json_path = os.path.splitext(csv_path)[0] + ".json"
    if json_path == csv_path:
        raise ValueError(f"{csv_path} would be its own JSON sidecar; name the CSV with another extension")
    return json_path
