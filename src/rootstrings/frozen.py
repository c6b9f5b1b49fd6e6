"""The base of the package's immutable value types.

A subclass names its fields, in order, as both ``__slots__`` and
``__match_args__``, and writes a public ``__init__`` that first normalizes
and checks its arguments and then sets the fields with one
``self._fill(...)`` call, so no field is written twice.  ``FieldElement``
alone fills first and then runs its checks in a ``__post_init__`` hook,
which its ``__init__`` calls: the benchmark tracer and the tests wrap that
hook to count validated constructions.  ``Frozen`` supplies the rest:
field-wise equality with instances of the same class and a matching hash,
a ``Name(field=value, ...)`` repr, copying and pickling, and an
AttributeError on any assignment or deletion.

``_trusted`` is the one constructor that skips the checks.  It is for the
package's own callers, which build values already known to be valid, and for
copies and unpickled values, which hold what a checked value held: as with
the dataclasses these classes replace, a copy re-runs no check, so copying a
GF(7^8) spec does not test its modulus again.
"""

from __future__ import annotations

import operator


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        # _key(value): what equality and hashing compare, the field values
        # as a tuple (the one value of a one-field class); an attrgetter is
        # no descriptor, so self._key is the getter itself, not a method
        cls._key = operator.attrgetter(*cls.__slots__)

    @classmethod
    def _trusted(cls, *values):
        """An instance holding ``values``, in field order, unchecked."""
        self = object.__new__(cls)
        self._fill(*values)
        return self

    def _fill(self, *values):
        """Set the fields, in order, to ``values``; a wrong count raises ValueError."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _rebuild, (type(self), *map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _rebuild(cls, *values):
    """``cls._trusted(*values)``: what pickle and copy call to rebuild a
    value, a module-level name so that pickles refer to it by name."""
    return cls._trusted(*values)
