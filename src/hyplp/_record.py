"""Immutable value records without `dataclasses`, whose import of `inspect`
(with `ast`, `dis` and `tokenize`) costs about 30 ms of start-up per process.
A record annotates its fields in order, defaults last, as a frozen dataclass
does; its module needs `from __future__ import annotations`."""


class _RecordType(type):
    def __new__(mcs, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        return super().__new__(mcs, name, bases, {**ns, "__slots__": fields})


class Record(metaclass=_RecordType):
    """Fields bound like a function's arguments; equality and hash by value
    within one class; `Name(field=value, ...)` repr; assignment refused."""

    def __init__(self, *args, **kwargs):
        given = dict(zip(self.__slots__, args), **kwargs)
        values = {**self._defaults, **given}
        if len(given) < len(args) + len(kwargs) or values.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {', '.join(self.__slots__)}")
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        """Validate and normalize; set a field with `object.__setattr__`."""

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def _values(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A new record with `changes` applied, validated again."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))
