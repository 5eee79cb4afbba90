"""The base of the record classes that cannot be `typing.NamedTuple`s: the
mutable ones, the graphs, whose `cached_property` indexes need an instance
`__dict__`, and the path-expression nodes.

A subclass lists its fields, in constructor order, as `__match_args__`, and
writes its own `__init__` or `__new__`. A record equals a record of its own
class with equal fields, its `repr` is ``Name(field=value, ...)``, and it is
unhashable unless its class defines `__hash__`, as with a dataclass. The
package does not use `dataclasses`, which imports `inspect`: the two add to
every cold start of the command.

A `Frozen` record, whose constructor sets its fields with
`object.__setattr__`, refuses assignment once built, and a copy or a pickle
rebuilds it through its constructor.

The other immutable records are `NamedTuple`s: C-level construction, hash and
`==`. A `NamedTuple` equals any tuple with the same values, a record of
another class included, so each stays where no set or comparison mixes it
with tuples or other records.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
