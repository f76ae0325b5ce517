"""Record classes: the part of `dataclasses` that termcert uses, made cheaply.

termcert declares its ASTs, graphs, certificates and reports as small record
classes.  `@dataclass` spends about 0.9 ms creating each one (several
generated-method `exec`s, signature inspection, and the import of
`dataclasses` and `inspect` themselves), and a command creates up to 37 of
them at start-up, which used to cost more than some commands' own work.
`record` builds the same classes with one `exec` per class, which compiles
`__init__`, `__eq__` and `__hash__` together; `__repr__` and the frozen
`__setattr__` and `__delattr__` are shared functions.

Supported, with the meaning `dataclasses` gives it:

- fields from the class's own annotations, in order; no inheritance of
  fields and no `ClassVar`
- `frozen`: assignment and deletion raise `AttributeError`; `__post_init__`
  sets fields with `object.__setattr__`
- defaults, and `field(default=..., default_factory=..., compare=...,
  repr=...)`
- `__post_init__`, called with no arguments
- `__eq__` between instances of the same class over the compared fields;
  `__hash__` over them for frozen classes, none for the others
- `__repr__` over the shown fields

A class that writes `__eq__`, `__hash__` or `__repr__` itself is refused
with a `TypeError`, so a method it writes is never silently replaced.  A
class's fields and their specs are in its `_record_fields`.  Instances keep
their `__dict__`, so `cached_property` works and pickling needs nothing
special.  The generated `__init__` sets fields as `dataclasses` does:
writing through `__dict__` would construct faster, but on Python 3.11 it
makes every later attribute read of the instance about 4x slower.
"""

_MISSING = object()


class _Field:
    __slots__ = ("default", "default_factory", "compare", "repr")

    def __init__(self, default, default_factory, compare, repr):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def field(*, default=_MISSING, default_factory=_MISSING, compare=True, repr=True):
    """A field's default, or default factory, and whether `==`, `hash` and
    `repr` use it."""
    return _Field(default, default_factory, compare, repr)


def record(cls=None, *, frozen=False):
    """Class decorator: `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}"
                      for name, spec in self._record_fields.items() if spec.repr)
    return f"{self.__class__.__qualname__}({shown})"


def _build(cls, frozen):
    written = sorted({"__eq__", "__hash__", "__repr__"} & cls.__dict__.keys())
    if written:
        raise TypeError(f"record class {cls.__qualname__} writes {', '.join(written)}")
    namespace = {"_set": object.__setattr__, "_MISSING": _MISSING}
    fields, params, body = {}, [], []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, _Field):
            spec = _Field(spec, _MISSING, True, True)
        fields[name] = spec
        if spec.default is not _MISSING:
            setattr(cls, name, spec.default)
            namespace[f"_default_{name}"] = spec.default
            params.append(f"{name}=_default_{name}")
        else:
            if name in cls.__dict__:
                delattr(cls, name)
            if spec.default_factory is not _MISSING:
                namespace[f"_factory_{name}"] = spec.default_factory
                params.append(f"{name}=_MISSING")
                body.append(f"if {name} is _MISSING: {name} = _factory_{name}()")
            else:
                params.append(name)
        body.append(f"_set(self, {name!r}, {name})" if frozen else f"self.{name} = {name}")
    cls._record_fields = fields
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")

    compared = [name for name, spec in fields.items() if spec.compare]
    mine = "".join(f"self.{name}," for name in compared)
    theirs = "".join(f"other.{name}," for name in compared)
    source = [f"def __init__(self, {', '.join(params)}):",
              *(f" {line}" for line in body or ["pass"]),
              "def __eq__(self, other):",
              " if other.__class__ is self.__class__:",
              f"  return ({mine}) == ({theirs})",
              " return NotImplemented"]
    methods = ["__init__", "__eq__"]
    if frozen:
        source += ["def __hash__(self):", f" return hash(({mine}))"]
        methods.append("__hash__")
    else:
        cls.__hash__ = None
    exec("\n".join(source), namespace)
    for method in methods:
        function = namespace[method]
        function.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, function)
    cls.__repr__ = _repr
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    return cls
