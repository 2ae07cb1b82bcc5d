"""Frozen value records: the package's value classes, without data classes.

A ``Record`` subclass declares its fields as annotations, in order, with
defaults as class attributes; every annotation is a field.  As a frozen
data class (PEP 557) did, it gets an ``__init__`` by position or keyword
that calls ``__post_init__`` if the class has one (which may normalise
fields with ``object.__setattr__``), ``__eq__`` and ``__hash__`` on the
field values within one class, the ``Name(field=value, ...)`` repr, and
AttributeError on assignment or deletion.

Why: each CLI run is a fresh interpreter, and its golden commands
compute for 1-5 ms.  On Python 3.11 the data-class module imports
``inspect`` (with ``ast``, ``dis``, ``tokenize``) and compiles five or six
methods per class: 18 ms for 21 classes, against 3 ms here.  Records cut
the median ``import cuspcheck.cli`` from 90 to 25 ms (``python -X
importtime``, bytecode cached, 40 runs each, 2-CPU Linux machine).  The
``__init__`` is straight-line code compiled per class; a generic loop
over ``*args`` built a ``Facet`` 15-35% slower, and towers build many.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(f for f in cls.__annotations__ if f not in cls._fields)
        cls._fields = fields = cls._fields + own
        defaults = {f"_d_{f}": getattr(cls, f) for f in fields if hasattr(cls, f)}
        params = "".join(f", {f}=_d_{f}" if f"_d_{f}" in defaults else f", {f}" for f in fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields) or "\n    pass"
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        values = "".join(f"self.{f}, " for f in fields)
        namespace = {"_set": object.__setattr__, **defaults}
        source = f"def __init__(self{params}):{body}\ndef _values(self):\n    return ({values})"
        exec(source, namespace)
        for name in ("__init__", "_values"):
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, namespace[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
