"""The batch game kernels, dispatched on the data.

Batches whose observations are all exactly 0.0 or 1.0 take the binary
u-posterior routine (``_pykernels.up_game_batch_binary``): one posterior pass
per distinct stream rather than per game. It keeps the exact posterior up to
rounding, and matches the general K-node kernel to 1e-9 while that kernel's
weights do not underflow. Every other batch goes to the general K-node
kernel (``_pykernels.up_game_batch``), which plays a block of rounds per pass
over its (games, K) weights: within a block it advances a low-degree
polynomial of the rounds' payoffs and reads each round's bet and payoff from
moments of the weights taken once per block. Both are plain numpy on the
calling thread; ``BACKEND`` and ``n_threads()`` say so in run manifests.
"""

from __future__ import annotations

from .._lazy import np
from ..domain import unbroadcast_rows
from . import _pykernels
from ._pykernels import quadrature_coefficients  # noqa: F401

BACKEND = "python"
# Quadrature nodes of the universal portfolio unless a strategy names its own.
DEFAULT_UP_NODES = 1001


def n_threads() -> int:
    """Threads the kernels run on: the calling thread only."""
    return 1


def up_game_batch(xs, mus, n_nodes):
    """Run the batch universal-portfolio games: binary data on the u-posterior
    routine, anything else on the general K-node kernel, which rejects NaN
    and values outside [0, 1]."""
    xs = np.asarray(xs, dtype=float)
    values = unbroadcast_rows(xs)
    if values.size and ((values == 0.0) | (values == 1.0)).all():
        return _pykernels.up_game_batch_binary(xs, mus, n_nodes)
    return _pykernels.up_game_batch(xs, mus, n_nodes)
