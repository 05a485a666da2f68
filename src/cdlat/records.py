"""Immutable value records, built without the `dataclasses` machinery.

A subclass names its fields in order in `__slots__` and annotates each:

    class Wreath(Record):
        __slots__ = ("bottom", "top")
        bottom: GroupSpec
        top: int

It gets construction by position or keyword, a `Name(field=value, ...)`
repr, equality and hashing by type and field values, and fields that
cannot be assigned after construction.  Importing `dataclasses` costs
more than all of this: it loads `inspect`, `ast` and `dis`, and compiles
six methods per class, where a record compiles only its `__init__`.

The fields are listed twice because a metaclass that read them from the
annotations alone would slow every failing `isinstance` test against a
record class, and the spec printer and evaluator make several per node.
"""

from __future__ import annotations


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj.__slots__)


class Record:
    """Frozen record whose fields, in order, are its class's `__slots__`.

    Each subclass gets an `__init__` taking its fields by position or
    keyword; it calls the subclass's `__post_init__`, if any, last.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if names != tuple(cls.__annotations__):
            raise TypeError(f"{cls.__name__}.__slots__ must name its annotated fields in order")
        # a generated signature binds arguments as fast as a hand-written one;
        # slot names are identifiers, so the source is safe to compile
        lines = [f"def __init__(self, {', '.join(names)}):"]
        lines += [f"    _set(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        scope = {"_set": object.__setattr__}
        exec("\n".join(lines), scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self) -> int:
        return hash(_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), _values(self)
