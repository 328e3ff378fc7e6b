"""numpy, bound on first use.

``from ._lazy import np`` gives the module object that ``import numpy``
would give, but numpy's code runs only at the first attribute access
(``importlib.util.LazyLoader``). From then on ``np`` is numpy itself, so a
hot path pays nothing. Every library module that uses numpy binds it this
way (``multiround`` uses none), so importing any of them runs no numpy
code; the first array operation does. A caller that has already imported
numpy gets that module back unchanged.

The first access is not safe between threads: on Python versions whose
``LazyLoader`` takes no lock, two threads that first touch a not-yet-loaded
numpy at the same moment (for example by passing plain lists to the kernels)
can see a half-initialised module. Importing numpy before starting the
threads, as every caller that passes arrays has, avoids it.
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
