"""Exception types shared across the package, and the one check of a JSON
object's keys and types that every reader of a config or checkpoint uses.

The CLI maps these onto process exit codes: config problems exit 1, data
problems exit 2, capacity refusals exit 3.
"""

import difflib
from dataclasses import fields


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class CapacityError(RuntimeError):
    """A requested expansion would exceed a hard size cap."""


class DataError(ValueError):
    """A dataset or data file violates its contract."""


class ParseError(DataError):
    """A file or a cell could not be parsed; the message names the file, or
    the row and column."""


class SchemaError(DataError):
    """Columns, labels, or config structure do not match expectations."""


class ConfigError(ValueError):
    """A run configuration is invalid; message lists every offending key."""


class StateError(RuntimeError):
    """An operation was called with stale or inconsistent cached state."""


def schema_of(cls) -> dict:
    """Key -> type of a dataclass, read off its field defaults."""
    return {f.name: type(f.default) for f in fields(cls)}


def _type_ok(value, kinds: tuple) -> bool:
    if isinstance(value, bool):  # checked first: isinstance(True, int) holds
        return bool in kinds
    return isinstance(value, kinds + ((int,) if float in kinds else ()))


def check_keys(doc: dict, schema: dict, problems: list[str], where: str = "",
               required=()) -> dict:
    """Screen ``doc`` against ``schema`` (key -> type, or a tuple of types;
    float also accepts int, and only bool accepts a bool). Each unknown key,
    wrong type and missing ``required`` key appends one message to
    ``problems``; returns the entries that pass."""
    prefix = f"{where}: " if where else ""
    clean = {}
    for key, value in doc.items():
        kinds = schema.get(key, ())
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        if key not in schema:
            hint = difflib.get_close_matches(key, sorted(schema), n=1, cutoff=0.6)
            suggest = f" (did you mean '{hint[0]}'?)" if hint else ""
            problems.append(f"{prefix}unknown key '{key}'{suggest}")
        elif not _type_ok(value, kinds):
            names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            problems.append(f"{prefix}'{key}' must be {names}, got {type(value).__name__}")
        else:
            clean[key] = value
    problems.extend(f"{prefix}missing key '{key}'" for key in required if key not in doc)
    return clean


def check_exact(doc, schema: dict, where: str) -> None:
    """SchemaError listing every problem unless ``doc`` is an object with
    exactly the keys of ``schema``, each of its type."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} is not a JSON object")
    problems: list[str] = []
    check_keys(doc, schema, problems, required=schema)
    if problems:
        raise SchemaError(f"{where}: " + "; ".join(problems))
