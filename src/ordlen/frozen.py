"""The immutable base of ordlen's algebraic value classes."""

from __future__ import annotations


class Frozen:
    """A value whose fields, named in ``__slots__``, are set once.

    A subclass fills its slots in ``__init__`` through
    ``object.__setattr__``; afterwards assigning or deleting a field
    raises AttributeError.  Pickling and copying rebuild the value by
    calling the class on its fields, in slot order.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, tuple(getattr(self, name) for name in self.__slots__))
