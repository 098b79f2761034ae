"""One reader for every JSON config: train configs, benchmark specs, cost
parameter files and the configs stored in model files."""

from __future__ import annotations

import numbers
import typing
from dataclasses import MISSING, fields, is_dataclass

from .errors import ConfigError, CostForestError

_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
          dict: "an object", type(None): "null"}
_MISMATCH = object()


def from_json(cls, obj, key: str = "", complete: bool = False):
    """Read the JSON value ``obj``, found at dotted ``key``, as a ``cls``.

    ``obj`` must be an object whose keys are fields of ``cls``, holding every
    field that has no default (every field if ``complete``, as in the files
    the package writes). Each value must match its type hint: an ``int`` is
    an integral number but not a bool, a ``float`` any number (an int is kept
    as it is), a tuple or list a list, and a dataclass an object read by this
    same rule. Then the object's ``validate()`` runs (a parent's checks its
    nested objects). Any failure is one ConfigError naming the dotted key.
    """
    return _build(cls, obj, key, complete, validate=True)


def check_integers(config, *names: str) -> None:
    """A ConfigError unless each named field of ``config`` is an integer: a
    Python or numpy integer, not a bool, as the JSON reader requires."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


def _build(cls, obj, key: str, complete: bool, validate: bool = False):
    if not isinstance(obj, dict):
        raise ConfigError(f"{key or 'value'!r} must be an object, got {obj!r}")
    unknown = sorted(obj.keys() - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls) if f.name not in obj
               and (complete or f.default is f.default_factory is MISSING)]
    for problem, names in (("unknown", unknown), ("missing", missing)):
        if names:
            raise ConfigError(f"{problem} keys {names}" + (f" in {key!r}" if key else ""))
    hints, values = typing.get_type_hints(cls), {}
    for name, value in obj.items():
        dotted = f"{key}.{name}" if key else name
        values[name] = _read(hints[name], value, dotted, complete)
        if values[name] is _MISMATCH:
            raise ConfigError(f"{dotted!r} must be {_describe(hints[name])}, got {value!r}")
    try:
        built = cls(**values)
        if validate and hasattr(built, "validate"):
            built.validate()
    except (CostForestError, ArithmeticError, TypeError, ValueError) as exc:
        message = str(exc) if isinstance(exc, CostForestError) else f"{type(exc).__name__}: {exc}"
        raise ConfigError(f"{key!r}: {message}" if key else message) from None
    return built


def _read(hint, value, key: str, complete: bool):
    """``value`` read as a ``hint``, or _MISMATCH."""
    if is_dataclass(hint):
        return _build(hint, value, key, complete) if isinstance(value, dict) else _MISMATCH
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            return _MISMATCH
        arms = args if origin is tuple and args[-1] is not ... else args[:1] * len(value)
        items = [_read(arm, item, f"{key}[{i}]", complete)
                 for i, (arm, item) in enumerate(zip(arms, value))]
        return origin(items) if len(arms) == len(value) and _MISMATCH not in items else _MISMATCH
    if args:  # a union: the first arm that matches
        reads = (_read(arm, value, key, complete) for arm in args)
        return next((read for read in reads if read is not _MISMATCH), _MISMATCH)
    kinds = (int, float) if hint is float else hint
    if isinstance(value, kinds) and (hint is bool or not isinstance(value, bool)):
        return value
    return _MISMATCH


def _describe(hint) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (list, tuple):
        count = f"{len(args)} " if origin is tuple and args[-1] is not ... else ""
        return f"a list of {count}{_describe(args[0]).split()[-1]}s"
    if args:
        return " or ".join(_describe(arm) for arm in args)
    return "an object" if is_dataclass(hint) else _NAMES[hint]
