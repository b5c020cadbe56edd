"""Immutable values: the one base of the package's frozen records.

A record class names its fields once, as the parameters of its own
``__init__``, which checks them and stores them, with any field it derives
from them, by ``set_field`` (the base refuses ``setattr``).  From those
parameters the base gives a record the repr ``Name(field=value, ...)`` unless
the class writes its own, equality between two records of one class whose
compared fields are equal, a hash that agrees with it (the hash of those
fields' values), and ``AttributeError`` on assignment and ``del``.  Every
field is compared unless the class is declared with ``compare=(names)``; one
declared with ``eq=False`` equals only itself and hashes by identity.
``replace``, pickle and copy rebuild a record through ``__init__``, so derived
fields are derived anew.  No code is generated: a class costs what a plain
class costs.
"""

from __future__ import annotations

from operator import attrgetter

# How an ``__init__`` stores a field.  It keeps the values in the instance, as
# plain attribute stores do; going through ``__dict__`` would give every record
# a dict of its own and more than double its memory.
set_field = object.__setattr__


class Value:
    __slots__ = ()

    def __init__(self):
        pass

    def __init_subclass__(cls, eq: bool = True, compare: tuple | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        init = cls.__init__.__code__
        cls._fields = init.co_varnames[1:init.co_argcount]
        if not eq:  # object's own, inherited
            return
        names = cls._fields if compare is None else compare
        key = attrgetter(*names) if names else lambda self: ()  # a tuple past one field

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return self is other or key(self) == key(other)
            return NotImplemented
        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in self._fields]) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


def replace(record: Value, **changes) -> Value:
    """A record of the same class, built by its ``__init__`` from record's fields
    with ``changes`` applied."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields},
                           **changes})
