"""One config schema, derived from the config dataclasses' own fields.

A field states its rule in `field(metadata=...)`: `choices`, bounds
`ge`/`gt`/`le`/`lt` (on each item of a list), `key` (its dotted JSON key in
the enclosing section, if not its name), or `derived` (the setting it is
copied from; never read from JSON, never checked). The annotation gives the
type: `int` rejects bools and floats, `float` takes finite reals, `str | None`
takes null, `tuple[int, ...]` a non-empty list, and a nested config class is
checked by its own `validate()`, or by its fields if it defines none.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import typing
from dataclasses import fields, is_dataclass

_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _key(f) -> tuple[str, ...]:
    return tuple(f.metadata.get("key", f.name).split("."))


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _problem(tp, rule: dict, v) -> str | None:
    """Why `v` breaks its field's type and rule, or None if it does not."""
    limits = [(op, rule[n], f"{sym} {rule[n]}") for n, (op, sym) in _BOUNDS.items() if n in rule]
    bounds = " and ".join(text for _, _, text in limits)

    def in_bounds(x) -> bool:
        return all(op(x, limit) for op, limit, _ in limits)

    if typing.get_origin(tp) is tuple:
        if isinstance(v, tuple) and v and all(_is_int(x) and in_bounds(x) for x in v):
            return None
        return f"must be a non-empty list of integers {bounds}".rstrip() + f" (got {v!r})"
    if tp is int:
        ok, what = _is_int(v), "an integer"
    elif tp is float:
        try:
            ok = isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
        except OverflowError:  # an integer beyond the float range
            ok = False
        what = "a finite number"
    else:  # str, or str | None
        ok = isinstance(v, str) or (v is None and tp is not str)
        what = "a string" if tp is str else "a string or null"
    if "choices" in rule and not (ok and v in rule["choices"]):
        return f"must be one of {', '.join(rule['choices'])} (got {v!r})"
    if not ok or not in_bounds(v):
        return f"must be {bounds if ok else what} (got {v!r})"
    return None


def check(obj) -> list[str]:
    """Type, finiteness, range and choice errors of the fields of `obj`,
    each led by the field's JSON key."""
    errors = []
    for f in fields(obj):
        if "derived" in f.metadata:
            continue
        tp, key, value = _hints(type(obj))[f.name], ".".join(_key(f)), getattr(obj, f.name)
        if is_dataclass(tp):
            errors.extend(f"{key}.{e}" for e in getattr(value, "validate", lambda: check(value))())
        elif (problem := _problem(tp, f.metadata, value)) is not None:
            errors.append(f"{key} {problem}")
    return errors


def _layout(cls, where: tuple = ()) -> dict:
    """{JSON key path: "section", "leaf", or the source of a derived field}."""
    table = {}
    for f in fields(cls):
        path, tp = where + _key(f), _hints(cls)[f.name]
        table.update({path[:i]: "section" for i in range(len(where) + 1, len(path))})
        if "derived" in f.metadata:
            table[path] = f.metadata["derived"]
        elif is_dataclass(tp):
            table[path] = "section"
            table.update(_layout(tp, path))
        else:
            table[path] = "leaf"
    return table


def _collect(node: dict, where: tuple, table: dict, values: dict, errors: list) -> None:
    """Gather a JSON object's leaf values by key path; report the rest."""
    for name, value in node.items():
        path = where + (name,)
        kind, key = table.get(path), ".".join(path)
        if kind == "section" and isinstance(value, dict):
            _collect(value, path, table, values, errors)
        elif kind == "section":
            errors.append(f"{key} must be a JSON object (got {value!r})")
        elif kind == "leaf":
            values[path] = value
        elif kind is None:
            errors.append(f"{key} is not a known key")
        else:
            errors.append(f"{key} cannot be set: it is copied from {kind}")


def _build(cls, where: tuple, values: dict):
    kwargs = {}
    for f in fields(cls):
        path, tp = where + _key(f), _hints(cls)[f.name]
        if is_dataclass(tp) and "derived" not in f.metadata:
            kwargs[f.name] = _build(tp, path, values)
        elif path in values:
            listed = typing.get_origin(tp) is tuple and isinstance(values[path], list)
            kwargs[f.name] = tuple(values[path]) if listed else values[path]
    return cls(**kwargs)


def from_json(cls, raw: dict):
    """Build config class `cls` from a parsed JSON object; returns
    (instance, errors). The errors cover structure: unknown keys, derived
    keys, sections that are not objects. Absent keys keep their defaults and
    values pass through unchecked (lists become tuples for tuple fields),
    for the instance's `validate()` to check."""
    errors: list[str] = []
    values: dict = {}
    _collect(raw, (), _layout(cls), values, errors)
    return _build(cls, (), values), errors
