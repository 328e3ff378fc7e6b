"""Every record class against its ``dataclasses`` twin.

The package's immutable records subclass ``evbet._record.Record``. Each test
below rebuilds a record class as the frozen dataclass it replaced, from the
same body (annotations, defaults, ``__post_init__`` and methods), and checks
that the two construct, fail, print, compare, hash, copy and pickle alike.
"""

import copy
import dataclasses
import importlib
import pickle

import numpy as np
import pytest

from evbet._record import Record

MODULES = ("domain", "evariables", "multiround", "iid_case", "game", "confseq", "betting")

SPACE = "SampleSpace((0.0, 0.5, 1.0), 0.5)"
TREE = "TreeHypothesis(0.5, ((0.0, 1.0),))"
GAMES = "BatchGameResult(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1, dtype=np.intp))"
# Per class: the arguments of one record and of one that __post_init__ rejects
# (None where the class has no check), as expressions over the package's names.
CASES = {
    "SampleSpace": ("((0.0, 0.5, 1.0), 0.5)", "((0.0, 0.5, 0.5, 1.0), 0.5)"),
    "DiscreteDistribution": ("(((0.0, 0.5), (1.0, 0.5)),)", "(((0.0, 0.5),),)"),
    "TwoPointMeasure": ("(0.0, 1.0, 0.5, 0.5)", None),
    "CoinBetEVariable": ("(0.5, 1.0)", "(0.5, 3.0)"),
    "HoeffdingEVariable": ("(0.5, 1.0)", "(0.5, 1e200)"),
    "TabulatedEVariable": (f"({SPACE}, (1.5, 1, 0.5))", f"({SPACE}, (1.0, 1.0))"),
    "DominationCertificate": ("(1.0, 0.5, 0.75)", None),
    "ValidityReport": ("(False, TwoPointMeasure(0.0, 1.0, 0.5, 0.5), 2.0)", None),
    "MultiRoundCoinBet": ("(0.5, ({(): 0.5},))", "(0.5, ({(0.5,): 0.5},))"),
    "StoppingMask": ("((STOP, STOP),)", None),
    "TreeHypothesis": ("(0.5, ((0.0, 1.0),))", "(0.5, ((0.6, 1.0),))"),
    "EProcess": (f"(0.5, len, 2, {SPACE})", "(0.5, lambda p: 2.0, 1)"),
    "AuditReport": (f"(1.5, {TREE}, full_mask(1), False, 1, True)", None),
    "T2Refutation": (f"({TREE}, 1.5)", None),
    "T2DominationResult": (f"(False, None, T2Refutation({TREE}, 1.5))", None),
    "XiStats": ("(1.0, 0.5, 0.25)", "(1.0, float('nan'), 0.25)"),
    "BruteForceResult": ("(1.0, 0.5)", None),
    "LedgerRow": ("(1, 0.5, 0.0, 1.0, 0.0)", None),
    "WealthLedger": ("(0.5, 0.05, (0.5,), (1.0,), (1.0,), (0.0,), None)", "(0.5, 1.5)"),
    "BatchGameResult": ("(np.zeros((1, 2)), np.ones((1, 2)), np.zeros(1, dtype=np.intp))", None),
    "CsResult": (f"(np.array([0.5]), 0.05, False, {GAMES}, np.ones((2, 1), dtype=bool))", None),
    "PortfolioPosterior": ("(np.linspace(-2.0, 2.0, 3), np.zeros(3))", None),
}


def record_classes():
    """Every ``Record`` subclass the library modules define, by name."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"evbet.{name}")
        for attr, value in vars(module).items():
            if isinstance(value, type) and issubclass(value, Record) and value is not Record:
                found.setdefault(attr, value)  # a class imported from another module is the same
    return found


CLASSES = record_classes()


def arguments(text):
    """The tuple ``text`` gives, evaluated over every library module's names."""
    names = {"np": np}
    for name in MODULES:
        names.update(vars(importlib.import_module(f"evbet.{name}")))
    return eval(text, names)


def dataclass_twin(cls):
    """``cls`` as the frozen dataclass it replaced: the same body, with ``eq`` off
    where the body binds its own ``__eq__``."""
    body = {k: v for k, v in vars(cls).items() if k not in ("__init__", "_fields", "__dict__")}
    return dataclasses.dataclass(frozen=True, eq="__eq__" not in body)(type(cls.__name__, (), body))


def outcome(call):
    """The ``repr`` of a call's result, or its exception's type and message."""
    try:
        return repr(call())
    except Exception as exc:  # parity of whatever each side raises
        return type(exc), str(exc)


def test_every_record_class_has_a_case():
    assert len(CLASSES) == 22
    assert sorted(CLASSES) == sorted(CASES)


def hashable(record):
    """Whether every field hashes (no arrays, dicts or lists), so the record does."""
    return not isinstance(outcome(lambda: hash(record)), tuple)


CLONES = (copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_behaves_as_its_dataclass(name):
    cls, twin = CLASSES[name], dataclass_twin(CLASSES[name])
    args, bad = (None if text is None else arguments(text) for text in CASES[name])
    record, again = cls(*args), cls(*args)
    twins = twin(*args), twin(*args)

    # Construction by position and by keyword, and the defaults.
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    assert repr(cls(**dict(zip(cls._fields, args)))) == repr(record) == repr(twins[0])
    defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
    required = args[: len(args) - len(defaults)]
    assert repr(cls(*required)) == repr(twin(*required))
    for field, value in defaults.items():
        assert getattr(cls(*required), field) is value

    # repr is Name(field=value, ...) in field order.
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in cls._fields)
    assert repr(record) == f"{name}({fields})"

    # Bad arguments, and what __post_init__ rejects, fail as the dataclass fails.
    for call in (lambda c: c(*args, 0.0), lambda c: c(), lambda c: c(*args[:-1], nonsense=1)):
        assert outcome(lambda: call(cls)) == outcome(lambda: call(twin))
    if bad is not None:
        assert isinstance(outcome(lambda: cls(*bad)), tuple)
        assert outcome(lambda: cls(*bad)) == outcome(lambda: twin(*bad))

    # No field, nor any other attribute, can be assigned or deleted.
    for field in (*cls._fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert repr(record) == repr(again)

    # Equality and hash as the dataclass's, within one class only.
    assert outcome(lambda: record == again) == outcome(lambda: twins[0] == twins[1])
    assert outcome(lambda: hash(record) == hash(again)) == outcome(
        lambda: hash(twins[0]) == hash(twins[1])
    )
    compares = cls.__eq__ is not object.__eq__ and hashable(record)
    if cls.__eq__ is not object.__eq__:
        # A record of another class with the same fields and values differs.
        namesake = type(name, (Record,), {"__annotations__": dict(cls.__annotations__)})
        assert record != namesake(*args) and namesake(*args) != record
        assert record.__eq__(twins[0]) is NotImplemented
        assert record != twins[0]
        assert record != tuple(getattr(record, field) for field in cls._fields)
    if compares:
        assert record == again and hash(record) == hash(again) == hash(twins[0])

    # Copies and pickles round-trip.
    for clone in CLONES:
        copied = clone(record)
        assert type(copied) is cls and repr(copied) == repr(record)
        if compares:
            assert copied == record and hash(copied) == hash(record)


def test_portfolio_posterior_compares_by_identity():
    cls = CLASSES["PortfolioPosterior"]
    grid, weights = arguments(CASES["PortfolioPosterior"][0])
    posterior = cls(grid, weights)
    assert posterior == posterior
    assert posterior != cls(grid, weights)
    assert posterior != copy.copy(posterior)
    assert hash(posterior) == object.__hash__(posterior)
