"""Backend selection for the hot game loops.

Batches whose observations are all exactly 0.0 or 1.0 take the binary
u-posterior routine (``_pykernels.up_game_batch_binary``, plain numpy) whatever
the backend: one posterior pass per distinct stream rather than per game. It
keeps the exact posterior up to rounding, and matches the general K-node
kernel to 1e-9 while that kernel's weights do not underflow. Every other batch
goes to the active backend: the compiled Cython kernel when importable,
otherwise the numpy fallback with identical semantics. Force a choice with
``EVBET_BACKEND=python`` or ``EVBET_BACKEND=cython``. ``EVBET_THREADS`` caps
the compiled kernel's threads (default: all CPUs); the numpy kernels are
single-threaded and ignore it.
"""

from __future__ import annotations

import os

import numpy as np

from . import _pykernels

_requested = os.environ.get("EVBET_BACKEND", "").strip().lower()

if _requested == "python":
    _impl = _pykernels
    BACKEND = "python"
else:
    try:
        from . import _ckernels as _impl  # type: ignore[no-redef]

        BACKEND = "cython"
    except ImportError:
        if _requested == "cython":
            raise ImportError(
                "EVBET_BACKEND=cython requested but the compiled kernel is unavailable"
            )
        _impl = _pykernels
        BACKEND = "python"


def n_threads() -> int:
    raw = os.environ.get("EVBET_THREADS", "").strip()
    if raw:
        return max(1, int(raw))
    return os.cpu_count() or 1


def up_game_batch(xs, mus, n_nodes, threads: int | None = None):
    """Run the batch universal-portfolio games: binary data on the u-posterior
    routine, anything else (NaN included) on the active backend."""
    xs = np.asarray(xs, dtype=float)
    if xs.size and ((xs == 0.0) | (xs == 1.0)).all():
        return _pykernels.up_game_batch_binary(xs, mus, n_nodes)
    if threads is None:
        threads = n_threads()
    return _impl.up_game_batch(xs, mus, n_nodes, threads)
