"""File helpers shared by checkpoints, indexes and the CLI outputs."""

import json
import os
import uuid
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path):
    """Open a text file for writing that replaces path only when the block ends.

    Writes go to a temporary file in path's directory, which os.replace then
    moves over path. If the block raises, path keeps its old contents and the
    temporary file is removed. There is no fsync: this guards against a failed
    or interrupted write, not against power loss.
    """
    tmp = f"{path}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_lines(path):
    """(line number, line) for each line of a UTF-8 text file.

    A line that is not UTF-8 raises a one-line ValueError naming the file and
    the line.
    """
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield lineno, line


def read_versioned_json(path, what, version, keys):
    """The object a versioned JSON file holds.

    Raises a one-line ValueError naming the file when it is not JSON, does not
    hold an object, has another format_version, or lacks one of keys.
    """
    with open(path, encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, got {type(payload).__name__}")
    found = payload.get("format_version")
    if found != version:
        raise ValueError(f"{path}: unsupported {what} version: {found!r}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{path}: {what} lacks {', '.join(map(repr, missing))}")
    return payload
