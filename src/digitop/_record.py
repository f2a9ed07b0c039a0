"""The base of digitop's immutable records.

Records are plain classes with hand-written constructors.  Generating them
at import time would load ``inspect`` and its dependencies, which cost more
to import than the rest of the package, and every CLI command pays for its
imports.
"""

from __future__ import annotations


class Record:
    """Immutable after ``__init__``; compared, hashed and shown field by field.

    A subclass names its fields, in constructor order, in ``_fields`` and
    stores each with ``object.__setattr__``.  (Updating ``vars(self)``
    instead would give every instance a dict of its own, about twice the
    memory.)  Equality holds between instances of the same class with equal
    fields, and the hash is that of the field tuple.  A subclass that
    defines its own equality, hash or repr keeps it.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
