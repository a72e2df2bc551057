"""File helpers: atomic writes, and one field check and one error line for every input."""

import json
import os
import uuid
from contextlib import contextmanager, suppress
from dataclasses import fields
from functools import cache
from operator import getitem


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


@contextmanager
def one_line_errors(where):
    """Re-raise an AttributeError, KeyError, TypeError or ValueError from the
    block as the one-line ValueError "<where>: <Type>: <message>"."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {type(exc).__name__}: {exc}") from None


# per annotation: the types a value may have, the types a list's items must
# have, and the noun a message uses. Ints count as numbers; a bool is only a bool.
_KINDS = {str: (str, (), "a string"), int: (int, (), "an integer"),
          float: ((int, float), (), "a number"), bool: (bool, (), "a bool"),
          list: (list, (), "a list"), list[str]: (list, str, "a list of strings")}


def _rules(types):
    return tuple((name, *_KINDS[typ]) for name, typ in types.items())


@cache
def _class_rules(cls):
    return _rules({f.name: f.type for f in fields(cls)})


def check_fields(what, record, types=None):
    """Raise TypeError "<what> <field> must be <a string|an integer|...>, got
    <value!r>" for the first field whose value does not have its type. A
    dataclass record is checked against its annotations (one table per class);
    a mapping record (a JSON line) passes a {field: type} table."""
    if types is None:
        rules, value_of = _class_rules(type(record)), getattr
    else:
        rules, value_of = _rules(types), getitem
    for name, kinds, items, noun in rules:
        value = value_of(record, name)
        if (not isinstance(value, kinds) or (type(value) is bool and kinds is not bool)
                or (items and not all(isinstance(item, items) for item in value))):
            raise TypeError(f"{what} {name} must be {noun}, got {value!r}")


def read_jsonl(path, make, id_key=None):
    """make(record) for every non-blank line of a JSON-lines file. A line that
    is not JSON, that make rejects, or whose record[id_key] (a question id)
    repeats an earlier line's raises a one-line ValueError naming file and line."""
    out = []
    seen = set()
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        with one_line_errors(f"{path}:{lineno}"):
            record = json.loads(line)
            out.append(make(record))
            if id_key is not None:
                if record[id_key] in seen:
                    raise ValueError(f"duplicate question id {record[id_key]!r}")
                seen.add(record[id_key])
    return out


def read_versioned_json(path, what, version, keys):
    """The object a versioned JSON file holds.

    Raises a one-line ValueError naming the file when it is not JSON, does not
    hold an object, has another format_version, or lacks one of keys.
    """
    with open(path, encoding="utf-8") as f, one_line_errors(path):
        payload = json.load(f)  # not JSON, or not UTF-8
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, got {type(payload).__name__}")
    found = payload.get("format_version")
    if found != version:
        raise ValueError(f"{path}: unsupported {what} version: {found!r}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{path}: {what} lacks {', '.join(map(repr, missing))}")
    return payload
