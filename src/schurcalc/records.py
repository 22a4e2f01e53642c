"""Plain value records over __slots__.

The AST nodes, reports and table entries are small records: a fixed
list of fields, equality by type and fields, and a
Name(field=value, ...) repr.  Record gives them that from their __slots__,
without the import cost of dataclasses (which loads inspect and ast and
generates code for each class).
"""


class Record:
    """A record whose fields are its __slots__, in order.

    Construction takes the fields positionally or by keyword; a field left
    out takes its value from the class's `defaults`, where a callable (such
    as list) is called for a fresh value.  Records compare equal when they
    have the same type and fields; they are mutable and unhashable.
    """

    __slots__ = ()
    defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes at most {len(names)} fields")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name in values or name not in names:
                raise TypeError(f"{type(self).__name__} got a repeated or unknown "
                                f"field {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                if name not in self.defaults:
                    raise TypeError(f"{type(self).__name__} is missing field {name!r}")
                default = self.defaults[name]
                values[name] = default() if callable(default) else default
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    """A Record that rejects assignment and hashes on its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
