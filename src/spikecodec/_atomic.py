"""The one commit of the package's output files, the JSON layout they
use, and the two rules of the files a later stage reads back: how a
JSON file is read, and where a CSV's JSON sidecar lives."""

from __future__ import annotations

import contextlib
import errno
import json
import os


def write_files(files) -> None:
    """Commit a batch of (path, chunks) files, chunks an iterable of
    bytes: write each to {path}.tmp.{pid}, one handle open at a time and
    in order, then replace the paths in order. A path that is a
    directory (IsADirectoryError) or is named twice, as os.path.abspath
    decides (ValueError), is refused before anything is written. Any
    failure before the replacing removes every temporary file and
    replaces nothing, and an OSError names the path, never its
    temporary file. What cannot be caught in advance is a filesystem
    error inside os.replace itself: the paths before it stay replaced."""
    files = list(files)
    named = set()
    for path, _ in files:
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if os.path.abspath(path) in named:
            raise ValueError(f"{path} is written twice in one batch")
        named.add(os.path.abspath(path))
    tmps = []
    try:
        for path, chunks in files:
            tmps.append(f"{path}.tmp.{os.getpid()}")
            with open(tmps[-1], "wb") as fh:
                fh.writelines(chunks)
        for tmp, (path, _) in zip(tmps, files):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def json_bytes(doc: dict) -> bytes:
    """doc as indented JSON with sorted keys and a final newline, the
    layout of every JSON file the package writes; Infinity and NaN,
    which strict JSON lacks, are a ValueError."""
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


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
