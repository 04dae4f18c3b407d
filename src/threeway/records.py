"""Immutable records, as ``dataclass(frozen=True)`` gives them, with no code generated per class at import.

A record's fields are its class annotations in order, a default being the
class attribute of the field's name.  ``__init__`` binds its arguments to the
fields as a call would and then calls ``__post_init__``.  Records are equal
when of one class with equal fields, hash by their fields, and show each field
not ``hidden`` by their class; setting or deleting an attribute raises.
"""

from __future__ import annotations

from operator import itemgetter


class Record:
    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)  # a subclass's fields follow those it inherits
        cls._fields = getattr(cls, "_fields", ()) + own
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        cls._shown = getattr(cls, "_shown", ()) + tuple(name for name in own if name not in hidden)
        cls._values = itemgetter(*cls._fields)  # the field values, read from an instance's __dict__

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            if len(args) > len(fields) or values.keys() != set(fields) or kwargs.keys() & set(fields[:len(args)]):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}, each once; "
                                f"got {len(args)} positional and the keyword arguments {', '.join(kwargs) or 'none'}")
            args = map(values.__getitem__, fields)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or normalize the fields once they are set."""

    def _asdict(self) -> dict:
        """The fields by name, in order; a field that is a record stays one."""
        return {name: self.__dict__[name] for name in self._fields}

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self.__dict__) == other._values(other.__dict__)

    def __hash__(self) -> int:
        return hash(self._values(self.__dict__))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"
