#!/usr/bin/env python3
"""Benchmark the compiled kernel against the numpy fallback.

The hot loop is the batch universal-portfolio game: per round, one posterior
mean plus one reweighting pass over the fraction grid, for every game in the
batch. Streams are drawn from ``uniform-grid:11``, the kind of data the general
kernel receives. Usage:

    python benchmarks/bench_backends.py [--games 200] [--rounds 500] [--nodes 1001]
"""

import argparse
import time

import numpy as np

from evbet.domain import DiscreteDistribution, sample_stream
from evbet.kernels import _pykernels


def load_backends():
    backends = {"python": _pykernels.up_game_batch}
    try:
        from evbet.kernels import _ckernels

        backends["cython"] = _ckernels.up_game_batch
    except ImportError:
        pass
    return backends


def workload(games, rounds, seed=0):
    # Not 0/1 data: the dispatcher sends binary batches to the u-posterior
    # routine, so the general kernel only ever sees graded observations.
    dist = DiscreteDistribution.uniform_grid(11)
    xs = np.empty((games, rounds))
    for g in range(games):
        xs[g] = sample_stream(dist, rounds, seed + g)
    mus = np.linspace(0.2, 0.8, games)
    return xs, mus


def bench(fn, xs, mus, nodes, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(xs, mus, nodes, 1)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--games", type=int, default=200)
    parser.add_argument("--rounds", type=int, default=500)
    parser.add_argument("--nodes", type=int, default=1001)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    backends = load_backends()
    xs, mus = workload(args.games, args.rounds)
    cell_updates = args.games * args.rounds * args.nodes

    print(f"batch UP games: {args.games} games x {args.rounds} rounds x {args.nodes} nodes")
    results = {}
    for name, fn in backends.items():
        seconds = bench(fn, xs, mus, args.nodes, args.repeats)
        results[name] = seconds
        rate = cell_updates / seconds / 1e6
        print(f"  {name:>7}: {seconds:8.3f} s   ({rate:8.1f} M node-updates/s)")
    if {"python", "cython"} <= results.keys():
        print(f"  speedup: {results['python'] / results['cython']:.2f}x")

    # sanity: identical trajectories up to rounding
    outs = {name: fn(xs[:4], mus[:4], args.nodes, 1) for name, fn in backends.items()}
    if len(outs) == 2:
        (b1, w1), (b2, w2) = outs.values()
        assert np.allclose(b1, b2, atol=1e-9)
        finite = np.isfinite(w1)
        assert np.allclose(w1[finite], w2[finite], atol=1e-9)
        print("  cross-check: trajectories agree within 1e-9")


if __name__ == "__main__":
    main()
