"""A small frozen value class without `dataclasses`.

Importing `dataclasses` pulls in `inspect` and costs every CLI process
several milliseconds, so the package's report classes derive from
FrozenRecord instead.  A subclass lists its fields in `__slots__`, in
constructor order, and assigns them in `__init__` with `_set`.  It gets value
equality (same class, equal fields), a repr naming the fields, hashing by its
fields, and refuses assignment, as a frozen dataclass does.
"""

from __future__ import annotations


class FrozenRecord:
    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")
