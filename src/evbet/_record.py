"""Frozen records, built without ``dataclasses``.

The package's small immutable objects (spaces, witnesses, certificates,
e-processes, audit trees and reports) subclass ``Record``. A subclass's
fields are its own annotations, in order, and a class attribute of the same
name is that field's default. Each subclass gets one generated ``__init__``,
compiled by one small ``exec`` as ``collections.namedtuple`` compiles its
``__new__``: it sets each field with ``object.__setattr__``, then calls the
class's ``__post_init__`` when it has one, which may normalise a field the
same way. Every other method is the base's: ``repr`` as
``Name(field=value, ...)``, equality of the field tuples within one class,
the hash of the field tuple, and assignment or deletion raising
``FrozenRecordError``. A record that must compare by identity binds
``__eq__ = object.__eq__`` and ``__hash__ = object.__hash__`` in its body.

``dataclasses`` generates six functions per class and imports ``inspect``;
this base does neither, so importing the certification modules skips both.
"""


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


class Record:
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        # A default is read from the class attribute when the def runs, and a
        # field without one after a field with one is a SyntaxError there.
        params = [f"{f}=_cls.{f}" if f in cls.__dict__ else f for f in fields]
        body = [f"_set(self, {f!r}, {f})" for f in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(params)}):\n {'; '.join(body) or 'pass'}", namespace)
        cls.__init__, cls._fields = namespace["__init__"], fields
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")
