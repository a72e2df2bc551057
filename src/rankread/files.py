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
    temporary file is removed; an OSError on the temporary file (a missing
    directory, or path being a directory) is raised naming path. There is no
    fsync: this guards against a failed or interrupted write, not against
    power loss.
    """
    tmp = f"{path}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def write_json(path, payload, indent=None):
    """json.dump payload to path, atomically."""
    with atomic_write(path) as f:
        json.dump(payload, f, indent=indent)


def write_jsonl(path, records):
    """One json.dumps line per record to path, atomically."""
    with atomic_write(path) as f:
        for record in records:
            f.write(json.dumps(record) + "\n")


def read_lines(path):
    """(line number, line) for each line of a UTF-8 text file, without the
    byte-order mark some editors write at its start.

    A line that is not UTF-8 raises a one-line ValueError naming the file and
    the line.
    """
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
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
    <value!r>" for the first field whose value does not have its type, else
    return record. A dataclass record is checked against its annotations (one
    table per class); a mapping record (a JSON line) passes a {field: type} table."""
    if types is None:
        rules, value_of = _class_rules(type(record)), getattr
    else:
        rules, value_of = _rules(types), getitem
    for name, kinds, items, noun in rules:
        value = value_of(record, name)
        if (not isinstance(value, kinds) or (type(value) is bool and kinds is not bool)
                or (items and not all(isinstance(item, items) for item in value))):
            raise TypeError(f"{what} {name} must be {noun}, got {value!r}")
    return record


def check_least(record, least):
    """Raise ValueError "<field> must be at least <least>, got <value>" for the
    first {field: least} entry that record's value falls below."""
    for name, low in least.items():
        if getattr(record, name) < low:
            raise ValueError(f"{name} must be at least {low}, got {getattr(record, name)}")


def _unique_keys(pairs):
    """json object_pairs_hook: json alone keeps a repeated key's last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def read_jsonl(path, make, id_key=None):
    """make(record) for every non-blank line of a JSON-lines file. A line that
    is not JSON, repeats a key within an object, that make rejects, or whose
    record[id_key] (a question id) repeats an earlier line's raises a one-line
    ValueError naming file and line."""
    out = []
    seen = set()
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        with one_line_errors(f"{path}:{lineno}"):
            record = json.loads(line, object_pairs_hook=_unique_keys)
            out.append(make(record))
            if id_key is not None:
                if record[id_key] in seen:
                    raise ValueError(f"duplicate question id {record[id_key]!r}")
                seen.add(record[id_key])
    return out


def read_json_object(path, what):
    """The object a JSON file holds; a leading byte-order mark is dropped. Raises a
    one-line ValueError naming the file when it is not UTF-8 JSON, repeats a key
    within an object, or does not hold an object."""
    with open(path, encoding="utf-8-sig") as f, one_line_errors(path):
        payload = json.load(f, object_pairs_hook=_unique_keys)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, got {type(payload).__name__}")
    return payload


def read_versioned_json(path, what, version, keys):
    """read_json_object's object, which must have format_version version and
    every one of keys, or a one-line ValueError naming the file is raised."""
    payload = read_json_object(path, what)
    found = payload.get("format_version")
    if found != version:
        raise ValueError(f"{path}: unsupported {what} version: {found!r}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{path}: {what} lacks {', '.join(map(repr, missing))}")
    return payload
