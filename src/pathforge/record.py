"""The base of the record classes that cannot be `typing.NamedTuple`s: the
mutable ones, and the graphs, whose `cached_property` indexes need an
instance `__dict__`.

A subclass lists its fields, in constructor order, as `__match_args__`, and
writes its own `__init__`. A record equals a record of its own class with
equal fields, its `repr` is ``Name(field=value, ...)``, and it is
unhashable unless its class defines `__hash__`, as with a dataclass. The
package does not use `dataclasses`, which imports `inspect`: the two add to
every cold start of the command.

The immutable records are `NamedTuple`s: C-level construction, hash and
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
