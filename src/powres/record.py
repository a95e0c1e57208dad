"""The immutable record base shared by the package's result and config types.

A subclass defines __init__, which checks its arguments and stores each one
in the instance __dict__ under its own name; those parameters, in order,
are its fields.  Record gives every subclass field-wise equality, hashing
and repr, refuses assignment and deletion, and builds changed copies
through __init__, so a copy passes the same checks as the original.
Values derived when read (functools.cached_property) go into the instance
__dict__ beside the fields, so pickling keeps them; equality, hashing,
repr and replace read only the fields.

Records are not dataclasses, but each class carries the one attribute that
dataclasses.replace, fields and asdict read, __dataclass_fields__, so code
written against the frozen dataclasses these types once were keeps
working; dataclasses itself loads only when one of those functions runs.
"""

from __future__ import annotations


class _Field:
    """What dataclasses.replace, fields and asdict read of a record field."""

    __slots__ = ("name",)
    init = True

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def _field_type(self):
        # the marker of an ordinary field; only a dataclasses function asks
        import dataclasses
        return dataclasses._FIELD


class Record:
    # each subclass's field names, read off its __init__ when it is defined
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls.__dataclass_fields__ = {name: _Field(name) for name in cls._fields}

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def replace(self, **changes):
        """A copy with the given fields changed, checked as on construction."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"
