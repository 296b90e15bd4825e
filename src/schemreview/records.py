"""The two kinds of record. A value is a namedtuple: immutable, compared
and hashed by its fields, cheap to define and build. Without an invariant
it is a ``typing.NamedTuple``; with one, it subclasses ``checked(...)`` and
coerces and checks its fields in ``__new__``, and keeps what it derives
from them in the instance ``__dict__``, outside equality, hash and repr.
Settings that callers change once built (CLI overrides do) are a
``Settings``: a plain mutable object built from keywords."""

from collections import namedtuple


def checked(name: str, fields: str):
    """A namedtuple class whose ``_make``, and so ``_replace``, builds
    through the subclass's ``__new__``, so that no copy skips its checks."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class Settings:
    """Fields named in ``_fields``, each not given at its ``_defaults``
    value; compared and shown by its fields."""

    _defaults: dict = {}
    _fields: tuple = ()

    def __init__(self, **fields):
        unknown = fields.keys() - set(self._fields)
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field {min(unknown)!r}")
        vars(self).update(self._defaults, **fields)

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
