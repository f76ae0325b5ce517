"""The record classes against stdlib `dataclasses` as the reference.

Each record class of termcert gets a dataclass twin built from the same
annotations, field specs and the methods the class writes itself.  For each
class a few constructor argument lists are run through both, and every
observable the record helper generates must agree with the twin's:
construction (positional, keyword, defaults, and the `TypeError`s),
`__post_init__`'s effects, `==` and `!=`, hashability and hash consistency,
`repr`, frozen assignment and deletion, and pickling.
"""

import dataclasses
import importlib
import pickle
import pkgutil
from fractions import Fraction
from itertools import product

import pytest

import termcert
from termcert._record import _MISSING, record
from termcert.cfg import CfgFunction, Star, Update
from termcert.certificates import Certificate, CertParams, CertPiece
from termcert.distributions import DiscreteDist
from termcert.lang import Assign, Cmp, Const, FunctionEntity, Seq, Skip, Var
from termcert.rng import TailEstimate
from termcert.valuation import Valuation

F = Fraction
X, N = Var("x"), Var("n")
LESS, MORE = Cmp("<", X, Const(0)), Cmp(">=", N, Const(1))
A, B = Assign("x", N), Assign("n", Const(2), 5)
HALF = DiscreteDist.bernoulli(F(1, 2))
PIECE = CertPiece(LESS, Const(3))
FN = FunctionEntity("f", ("n",), Seq((A, B)))
CFG_FN = CfgFunction("f", ("n",), 1, 3, {1: Update("n", N, (), 2), 2: Star(1, 3)})
TAIL = TailEstimate(3, 1, 0.1, 0.0, 0.4)

# Constructor argument lists per record class: equal and unequal pairs,
# labels that only differ where `==` ignores them, and defaults left out.
SAMPLES = {
    "lang.Const": [(1,), (F(1, 2),), (F(2, 2),)],
    "lang.Var": [("x",), ("y",)],
    "lang.BinOp": [("+", X, Const(1)), ("*", X, Const(1)), ("+", Var("x"), Const(1))],
    "lang.Pow": [(X, Const(2)), (Const(2), X)],
    "lang.InfConst": [()],
    "lang.Cmp": [("<", X, Const(0)), (">=", X, Const(0))],
    "lang.Not": [(LESS,), (MORE,)],
    "lang.And": [(LESS, MORE), (MORE, LESS)],
    "lang.Or": [(LESS, MORE), (LESS, LESS)],
    "lang.Skip": [(), (3,)],
    "lang.Assign": [("x", N), ("x", N, 4), ("y", N, 4)],
    "lang.IfBool": [(LESS, A, B), (LESS, A, B, 2), (MORE, A, B)],
    "lang.IfStar": [(A, B), (A, B, 3), (B, A)],
    "lang.While": [(LESS, A), (LESS, A, 7), (MORE, A)],
    "lang.Call": [("f", (X,)), ("f", (X,), 2), ("g", ())],
    "lang.Seq": [((A, B),), ((B, A),), ((Seq((A, B)), Skip()),), ((A, Seq((B, Skip()))),)],
    "lang.FunctionEntity": [("f", ("n",), Seq((Seq((A, B)), Skip()))),
                            ("f", ("n",), Seq((A, Seq((B, Skip())))), 9), ("g", (), Skip())],
    "lang.Program": [((FN,),), ((FN,), (("_bern1", HALF),))],
    "cfg.StackElement": [("f", 1, Valuation({"n": 1})), ("f", 2, Valuation({"n": 1}))],
    "cfg.Branch": [(LESS, 2, 3), (LESS, 3, 2), (MORE, 2, 3)],
    "cfg.Update": [(None, None, (), 2), ("x", Var("r"), ("r",), 2), ("x", Var("r"), ("r",), 3)],
    "cfg.CallSite": [("f", ("n",), (N,), ("n",), 2), ("g", (), (), (), 2)],
    "cfg.Star": [(2, 3), (3, 2)],
    "cfg.CfgFunction": [tuple(getattr(CFG_FN, name) for name in CfgFunction._record_fields),
                        ("g", (), 1, 1, {})],
    "cfg.Cfg": [((CFG_FN,), ()), ((CFG_FN,), ("r",), (("r", HALF),))],
    "cfg.ThetaIndex": [(frozenset({("f", 1)}), {("f", 1): 0}, 0, True, 0),
                       (frozenset(), {}, 1, False, 2, {"f": 2})],
    "certificates.CertPiece": [(None, Const(1)), (LESS, N)],
    "certificates.CertParams": [(), (1, 2, 3), (F(1), F(2), 3)],
    "certificates.Certificate": [(((("f", 1), (PIECE,)),),),
                                 (((("f", 2), (PIECE,)), (("f", 1), (PIECE,))), CertParams(1),
                                  "f@1: [x < 0] 3")],
    "distributions.DiscreteDist": [(((0, F(1, 2)), (1, F(1, 2))),), (((1, 1),),),
                                   (((1, F(1, 2)), (0, F(1, 2))),)],
    "distributions.SamplingFunction": [((("r", HALF),),), ((("s", HALF), ("r", HALF)),)],
    "_lex.Token": [("ident", "x", 1, 1), ("int", "2", 1, 3)],
    "checker.VerifyBox": [((("n", 0, 1),),), ((("n", 0, 1), ("m", -1, 1)),)],
    "checker.ConditionFailure": [("f", 1, "c", (("n", 1),), "1", "2"),
                                 ("f", 1, "c", (("n", 1),), "1", "2", "why")],
    "checker.CheckReport": [("ranking", True, "n=0..1", CertParams(1), (), 2, 0, 4),
                            ("cdb", False, "n=0..1", CertParams(), (), 2, 1, 4, "ab")],
    "checker._Kind": [(("eps",), ("eps",), (("a", None, max),)),
                      (("eps",), (), (("a", "b", min),), True, True, False)],
    "semantics.Scheduler": [("uniform",), ("always-then", None),
                            ("greedy-max", Certificate(((("f", 1), (PIECE,)),)))],
    "semantics.RunStats": [(10, 9, 1, 100, 3.5, 0.5, (TAIL,), 1, "uniform"),
                           (10, 9, 1, 100, 3.5, 0.5, (TAIL,), 1, "uniform", 35, 140),
                           (2, 0, 2, 5, None, None, (), 7, "greedy-max")],
    "rng.TailEstimate": [(3, 1, 0.1, 0.0, 0.4), (4, 0, 0.0, 0.0, 0.2)],
    "bounds.BoundReport": [("markov", "f@1", {"eps": "1"}, "1/2"),
                           ("markov", "f@1", {"eps": "1"}, "1/2", "n > 3")],
    "bounds.SqrtTailResult": [(True, 0.5, 10), (False, None, 2, 9)],
    "lab.LabResult": [("randomwalk", None, 10, 100, 1, 9, 1, 2.0, 0.5, (TAIL,)),
                      ("noconcentration", 2.0, 10, 100, 1, 10, 0, 2.0, 0.5, ())],
}

GENERATED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"}


def record_classes():
    """Every record class of the package, by `module.name`."""
    found = {}
    for info in pkgutil.iter_modules(termcert.__path__):
        module = importlib.import_module(f"termcert.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and "_record_fields" in vars(value)):
                found[f"{info.name}.{name}"] = value
    return found


RECORDS = record_classes()


def dataclass_twin(cls):
    namespace = {"__qualname__": cls.__qualname__}
    for name, value in vars(cls).items():
        if name in ("__dict__", "__weakref__", "_record_fields"):
            continue
        if name not in GENERATED:
            namespace[name] = value
    for name, spec in cls._record_fields.items():
        namespace[name] = dataclasses.field(
            default=dataclasses.MISSING if spec.default is _MISSING else spec.default,
            default_factory=(dataclasses.MISSING if spec.default_factory is _MISSING
                             else spec.default_factory),
            compare=spec.compare, repr=spec.repr)
    frozen = "__setattr__" in vars(cls)
    return dataclasses.dataclass(frozen=frozen)(type(cls.__name__, (), namespace))


def outcome(call):
    """The result of `call()`, or the type of exception it raised."""
    try:
        return call()
    except Exception as exc:  # each side's exception is compared, not handled
        return type(exc)


def refused(call):
    try:
        call()
    except AttributeError:
        return True
    return False


def test_every_record_class_has_samples():
    assert sorted(RECORDS) == sorted(SAMPLES)
    assert all("__post_init__" in vars(RECORDS[name]) for name in (
        "lang.Const", "lang.Seq", "checker.VerifyBox", "certificates.CertParams",
        "certificates.Certificate", "distributions.DiscreteDist",
        "distributions.SamplingFunction"))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_records_behave_as_their_dataclass_twins(name):
    cls = RECORDS[name]
    twin = dataclass_twin(cls)
    names = list(cls._record_fields)
    pairs = []
    for args in SAMPLES[name]:
        mine, theirs = cls(*args), twin(*args)
        # construction, defaults and __post_init__ set the same attributes
        assert vars(mine) == vars(theirs)
        assert vars(cls(**dict(zip(names, args)))) == vars(mine)
        assert repr(mine) == repr(theirs)
        pairs.append((mine, theirs))

    # missing, extra and unknown arguments
    full = tuple(getattr(pairs[0][0], field) for field in names)
    for bad_args, bad_kwargs in (((), {}), ((*full, 0), {}), (full, {"no_such_field": 0})):
        expected = outcome(lambda: twin(*bad_args, **bad_kwargs))
        got = outcome(lambda: cls(*bad_args, **bad_kwargs))
        if isinstance(expected, type):
            assert got is expected, (bad_args, bad_kwargs)
        else:  # every field has a default
            assert vars(got) == vars(expected)
    if any(spec.default is _MISSING and spec.default_factory is _MISSING
           for spec in cls._record_fields.values()):
        assert outcome(cls) is TypeError

    # == and != (against the twin class too), and hash consistent with ==
    for (mine1, theirs1), (mine2, theirs2) in product(pairs, repeat=2):
        assert (mine1 == theirs2) is False and (mine1 != theirs2) is True
        assert (mine1 == mine2) == (theirs1 == theirs2)
        assert (mine1 != mine2) == (theirs1 != theirs2)
        hashes = outcome(lambda: (hash(mine1), hash(mine2)))
        assert isinstance(hashes, tuple) == isinstance(outcome(lambda: hash(theirs1)), int)
        if isinstance(hashes, tuple) and mine1 == mine2:
            assert hashes[0] == hashes[1]

    for mine, theirs in pairs:
        # frozen assignment and deletion, of a field and of any other name
        for attr in (*names, "no_such_field"):
            assert refused(lambda: setattr(mine, attr, 1)) == \
                refused(lambda: setattr(theirs, attr, 1))
            assert refused(lambda: delattr(mine, attr)) == refused(lambda: delattr(theirs, attr))
        assert vars(mine) == vars(theirs)

    for args in SAMPLES[name]:
        original = cls(*args)
        copy = pickle.loads(pickle.dumps(original))
        assert type(copy) is cls and repr(copy) == repr(original) and copy == original


def test_a_default_factory_gives_each_instance_its_own_value():
    cls = RECORDS["cfg.ThetaIndex"]
    first, second = cls(frozenset(), {}, 0, True, 0), cls(frozenset(), {}, 0, True, 0)
    assert first.K_max_by_function == {} and first.K_max_by_function is not second.K_max_by_function


def test_frozen_errors_are_attribute_errors_naming_the_field():
    with pytest.raises(AttributeError, match="cannot assign to field 'name'"):
        X.name = "y"
    with pytest.raises(AttributeError, match="cannot delete field 'name'"):
        del X.name


def test_classes_may_not_write_the_methods_record_generates():
    # a method the class wrote would otherwise be silently replaced
    for method in ("__eq__", "__hash__", "__repr__"):
        namespace = {"__annotations__": {"x": int}, method: lambda self: 0}
        with pytest.raises(TypeError, match=f"record class Own writes .*{method}"):
            record(frozen=True)(type("Own", (), namespace))
