"""Sequential betting strategies emitting fractions in ``I_mu``.

The universal-portfolio strategy keeps a posterior over a quadrature grid of
bet fractions, reweighting each node by its realised coin-bet payoff
``1 + lam*(x - mu)`` and betting the posterior mean. Because the payoff is
linear in the fraction, betting the posterior mean makes the player's wealth
coincide with the wealth of the Bayes mixture over the grid.

This object path, played a round at a time by ``game.run_game``, is the
reference that the tests and the benchmark's final check compare the batch
kernels (``kernels.up_game_batch``) against; the CLI runs the kernels.
"""

from __future__ import annotations

from ._lazy import np
from ._record import Record
from .domain import bet_bounds, check_bet, check_node_count, check_observation
from .errors import DegeneratePosterior
from .kernels import DEFAULT_UP_NODES, quadrature_coefficients


def lambda_grid(mu: float, n_nodes: int) -> np.ndarray:
    """Equispaced quadrature nodes spanning ``I_mu`` (endpoints included)."""
    check_node_count(n_nodes)
    lo, hi = bet_bounds(mu)
    return np.linspace(lo, hi, n_nodes)


class PortfolioPosterior(Record):
    """Log-weights over ``lambda_grid(mu, K)``, the equispaced grid of bet fractions on ``I_mu``."""

    lambda_grid: np.ndarray
    log_weights: np.ndarray

    # Arrays: two posteriors are equal only when they are one object.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @classmethod
    def uniform(cls, mu: float, n_nodes: int = DEFAULT_UP_NODES) -> "PortfolioPosterior":
        grid = lambda_grid(mu, n_nodes)
        return cls(grid, np.zeros_like(grid))


def up_update(p: PortfolioPosterior, x: float, mu: float) -> PortfolioPosterior:
    """Reweight every node by its payoff on the observation ``x``.

    The payoff factor is the coin-bet value ``1 + lam*(x - mu)``, taken in the
    factored form ``(1 - u)(1 - x)/(1 - mu) + u*x/mu``, where node k of the
    grid on ``I_mu`` sits at u = k/(K-1) of the way along it (``np.linspace``,
    as in the batch kernels). An endpoint node whose payoff is zero then gets
    exactly zero, where the lambda form leaves a rounding error of about 1e-16
    that lets the node regrow. Nodes whose factor hits zero get log-weight -inf
    and stay excluded.
    """
    check_observation(x)
    u = np.linspace(0.0, 1.0, len(p.lambda_grid))
    factors = (1.0 - u) * ((1.0 - x) / (1.0 - mu)) + u * (x / mu)
    with np.errstate(divide="ignore"):
        log_w = p.log_weights + np.log(factors)
    return PortfolioPosterior(p.lambda_grid, log_w)


def up_bet(p: PortfolioPosterior) -> float:
    """Posterior-mean bet fraction, by quadrature over the node grid."""
    finite = p.log_weights > -np.inf
    if not finite.any():
        raise DegeneratePosterior("all quadrature nodes have zero weight")
    shift = p.log_weights[finite].max()
    w = np.exp(p.log_weights - shift)
    c = quadrature_coefficients(len(p.lambda_grid))
    cw = c * w
    return float(cw @ p.lambda_grid / cw.sum())


class ConstantStrategy:
    """Always bets the same fraction."""

    def __init__(self, mu: float, lam: float):
        check_bet(lam, mu)
        self.mu = mu
        self.lam = lam

    def bet(self) -> float:
        return self.lam

    def observe(self, x: float) -> None:
        pass

    def fresh(self) -> "ConstantStrategy":
        return ConstantStrategy(self.mu, self.lam)


class UniversalPortfolioStrategy:
    """Universal-portfolio betting over a quadrature grid of fractions."""

    def __init__(self, mu: float, n_nodes: int = DEFAULT_UP_NODES):
        self.mu = mu
        self.n_nodes = n_nodes
        self.posterior = PortfolioPosterior.uniform(mu, n_nodes)

    def bet(self) -> float:
        return up_bet(self.posterior)

    def observe(self, x: float) -> None:
        self.posterior = up_update(self.posterior, x, self.mu)

    def fresh(self) -> "UniversalPortfolioStrategy":
        return UniversalPortfolioStrategy(self.mu, self.n_nodes)
