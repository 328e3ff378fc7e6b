"""numpy, bound on first use.

``from ._lazy import np`` gives the module object that ``import numpy``
would give, but numpy's code runs only at the first attribute access
(``importlib.util.LazyLoader``). From then on ``np`` is numpy itself, so a
hot path pays nothing. ``domain``, ``evariables`` and ``multiround`` bind it
this way, which lets ``import evbet.cli``, ``--help`` and ``evbet audit`` run
without executing numpy. The first access should not race between threads.
"""

import importlib.util
import sys


def lazy_module(name: str):
    """``sys.modules[name]`` once imported; until then a module that imports itself on first use."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = lazy_module("numpy")
