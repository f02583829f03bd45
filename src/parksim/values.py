"""Immutable value classes for the per-message types.

A packet, broker command, simulator event, controller event or control
action is built for one message and read a few times. `Value` gives such a
class what a frozen dataclass gave it, for much less per object and at
import:

    class Publish(Value, defaults={"payload": b"", "qos": 0}):
        __slots__ = ("topic", "payload", "qos")

The fields are the class's `__slots__`, in order. The constructor takes
them positionally or by keyword; `defaults` gives trailing fields their
default values. It stores each field through its slot descriptor, so it
never goes through `__setattr__`, which refuses every assignment and
deletion. A class may define `_validate(self)`; the constructor calls it
last and it raises to refuse the object.

Two objects are equal only when they are of the same class and their
fields are equal, and equal objects hash equal. repr is that of a
dataclass. A Value subclass is meant to be final: its fields are its own
`__slots__` only.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Value:
    __slots__ = ()

    def __init_subclass__(cls, defaults: dict | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        defaults = defaults or {}
        unknown = set(defaults) - set(fields)
        if unknown:
            raise TypeError(f"{cls.__name__}: defaults for unknown fields {sorted(unknown)}")
        params = [name if name not in defaults else f"{name}=_d_{name}" for name in fields]
        body = [f"    _set_{name}(self, {name})" for name in fields]
        if hasattr(cls, "_validate"):
            body.append("    self._validate()")
        namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in fields}
        namespace.update({f"_d_{name}": value for name, value in defaults.items()})
        exec(f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(body) or "    pass"),
             namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
