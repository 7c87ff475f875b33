"""Field rules for the checked settings dataclasses: a subclass of
``_Config`` declares each single-field bound on its field (``_bounded``) and
checks only the rules that span fields in its own ``__post_init__``.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import types
import typing
from dataclasses import MISSING, field, fields


def _misfit(hint, value) -> bool:
    """Whether ``value`` breaks the number rule of a field declared ``hint``:
    an int field takes an int and a float field a finite real number, neither
    a bool; a dict field takes a dict and a tuple field a list or tuple, whose
    items (the values of a dict) follow the rule of their declared type, as
    does the value of an optional field."""
    if isinstance(value, bool):
        return hint in (int, float)
    if hint is int:
        return not isinstance(value, int)
    if hint is float:
        return not (isinstance(value, numbers.Real) and math.isfinite(value))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is dict:
        return not isinstance(value, dict) or any(_misfit(args[1], item) for item in value.values())
    if origin is tuple:
        return not isinstance(value, (list, tuple)) or any(_misfit(args[0], item) for item in value)
    if origin is types.UnionType and value is not None:
        return all(_misfit(arm, value) for arm in args if arm is not type(None))
    return False


_COMPARE = {"ge": operator.ge, "gt": operator.gt, "le": operator.le, "lt": operator.lt}


def _bounded(default=MISSING, **bound):
    """A field with ``default`` (none when omitted) and one declared bound:
    ``ge=lo`` or ``gt=lo``, alone or with ``lt=hi`` or ``le=hi``."""
    return field(default=default, metadata=bound)


def _bound_text(bound) -> str:
    """A field's declared bound as the error messages and the README put it."""
    if "lt" in bound or "le" in bound:
        lo = f"[{bound['ge']}" if "ge" in bound else f"({bound['gt']}"
        hi = f"{bound['lt']})" if "lt" in bound else f"{bound['le']}]"
        return f"in {lo}, {hi}"
    return f">= {bound['ge']}" if "ge" in bound else f"> {bound['gt']}"


@functools.cache
def _field_rules(cls) -> tuple:
    """Each field of ``cls`` as (name, declared type, resolved type hint,
    declared bound), resolved once per class."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.type, hints[f.name], f.metadata) for f in fields(cls))


class _Config:
    """Base of the checked dataclasses. Every field meets the number rule of
    its type and the bound its metadata declares, whether the object comes
    from JSON or from Python; subclasses add the rules that span fields."""

    def __post_init__(self):
        for name, declared, hint, bound in _field_rules(type(self)):
            value = getattr(self, name)
            if _misfit(hint, value):
                raise ValueError(
                    f"{name} must be {declared} (no bool, nan or infinity), got {value!r}")
            if bound and not all(_COMPARE[op](value, limit) for op, limit in bound.items()):
                raise ValueError(f"{name} must be {_bound_text(bound)}, got {value!r}")
