"""The one base class of the package's immutable records.

A record is a class whose annotated names are its fields, in order:

    class Ball(Record):
        center: tuple[float, ...]
        radius: float

It is built from its fields by position or keyword, with a class attribute
as a field's default; it runs its `__post_init__`, if it has one, after the
fields are set.  It cannot be assigned to, equals a record of the same class
whose fields are equal, hashes by its fields, and prints as
`Ball(center=(0.0,), radius=1.0)`.  `record._fields` names the fields and
`record._replace(radius=2.0)` is a copy with some changed.

The fields live in an instance `__dict__` built whole and then installed, so
attribute reads take CPython's fast path for a plain dict; a dict filled in
place through `self.__dict__` stays tied to the class's shared keys, and
reading a field from it took more than twice as long.  A field left at its default is not stored: it
reads the class attribute.

The methods are written once, here.  The standard library's record decorator
generates them per class instead, compiling each with its own `exec`: for
the package's 29 record classes that took 17-20 ms of every process's
`import wsobolev`, about a tenth of it.
"""

from __future__ import annotations

__all__ = ["Record"]


_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()
    _required = 0  # the leading fields that have no default
    _checked = False  # the class has a __post_init__

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        cls._required = next((i for i, f in enumerate(fields) if hasattr(cls, f)), len(fields))
        if not all(hasattr(cls, f) for f in fields[cls._required:]):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")
        cls._checked = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or not self._required <= len(args) <= len(fields):
            _set(self, "__dict__", self._bind(args, kwargs))
        else:
            _set(self, "__dict__", dict(zip(fields, args)))
        if self._checked:
            self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> dict:
        """The fields a call gives, by name; TypeError for a missing, surplus
        or repeated argument."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        values.update(kwargs)
        missing = [f for f in fields[:self._required] if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required argument(s): "
                            + ", ".join(map(repr, missing)))
        return values

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def _replace(self, **changes) -> Record:
        """A copy with the given fields changed, built and checked anew."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields) + ")")
