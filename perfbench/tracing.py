"""Spans and counters recorded around the calls into evbet's modules.

The traced run wraps public functions of the package from outside: each
wrapper is patched into the namespace of the module that calls the function
(``confseq`` imports ``run_games_batch`` by name, ``multiround`` imports
``check_evariable`` by name, the CLI calls ``domain.parse_distribution``
through the module), so the program itself is unchanged. A span records its
name, start, end, parent and operation id; counters are taken at the same
boundaries from the call's arguments and result. Calls made outside a traced
operation (the benchmark's own checks) pass straight through.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np

# Spans of the first KEEP_OPS traced operations of each kind are written to
# the results file; every span feeds the metrics.
KEEP_OPS = 20


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    op: int
    start: float
    end: float
    parent: int | None
    self_s: float


class Tracer:
    def __init__(self):
        self.self_s = Counter()  # span name -> summed self time
        self.calls = Counter()  # span name -> number of calls
        self.counts = Counter()  # counter name -> summed value
        self.kind_self_s = defaultdict(Counter)  # op kind -> span name -> self time
        self.kind_ops = Counter()
        self.kept: list[Span] = []
        self.sum_errors: list[str] = []
        self._ids = itertools.count()
        self._open: list[list] = []  # [id, name, start, child_s]
        self._spans: list[Span] = []
        self._op = None
        self._op_agg = Counter()  # aggregated time per name in the open operation

    def call(self, name, fn, args, kwargs, aggregate=False, counter=None):
        if self._op is None:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        if aggregate:
            # Leaf calls made thousands of times per operation: summed into
            # one total per name instead of one span each.
            try:
                return fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - start
                self._open[-1][3] += d
                self._op_agg[name] += d
                self.calls[name] += 1
        frame = [next(self._ids), name, start, 0.0]
        self._open.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            parent = self._open[-1] if self._open else None
            if parent is not None:
                parent[3] += end - start
            self._spans.append(
                Span(frame[0], name, self._op, start, end, parent and parent[0], end - start - frame[3])
            )
        if counter is not None:
            self.counts.update(counter(result, *args, **kwargs))
        return result

    def operation(self, op_id: int, kind: str, fn):
        """Run ``fn()`` as one traced operation under a root span ``op.<kind>``."""
        self._op, self._spans, self._op_agg = op_id, [], Counter()
        try:
            return self.call(f"op.{kind}", fn, (), {})
        finally:
            self._close_op(kind)

    def _close_op(self, kind):
        spans, self._op = self._spans, None
        root = spans[-1]
        total = sum(s.self_s for s in spans) + sum(self._op_agg.values())
        wall = root.end - root.start
        if abs(total - wall) > 1e-6 + 1e-9 * wall:
            self.sum_errors.append(f"op {root.op}: self times sum to {total}, wall {wall}")
        for s in spans:
            self.self_s[s.name] += s.self_s
            self.calls[s.name] += 1
            self.kind_self_s[kind][s.name] += s.self_s
        self.self_s.update(self._op_agg)
        self.kind_self_s[kind].update(self._op_agg)
        self.kind_ops[kind] += 1
        if self.kind_ops[kind] <= KEEP_OPS:
            self.kept.extend(spans)

    def kept_spans(self) -> list[dict]:
        return [asdict(s) for s in self.kept]


def _draws(result, *args, **kwargs):
    a = np.asarray(result)
    binary = bool(((a == 0.0) | (a == 1.0)).all())
    return {"domain.draws": a.size, "domain.streams": 1, "domain.binary_streams": int(binary)}


def _node_updates(result, xs, mus, n_nodes, *rest, **kwargs):
    return {"kernels.node_updates": int(np.size(xs)) * int(n_nodes)}


def _ledger_rounds(result, *args, **kwargs):
    return {"game.rounds": len(result.rows)}


def _batch_rounds(result, *args, **kwargs):
    return {"game.rounds": int(result.bets.size)}


def _validity(result, *args, **kwargs):
    return {"evariables.checks": 1, "evariables.valid": int(result.valid)}


def _audit(result, *args, n_random=1000, **kwargs):
    exhaustive = result.n_trees - n_random if result.exhaustive_complete else 0
    return {"multiround.trees": result.n_trees, "multiround.exhaustive_trees": exhaustive}


def _t2(result, *args, **kwargs):
    return {"multiround.t2_calls": 1, "multiround.certified": int(result.certified)}


def _iid(result, *args, **kwargs):
    return {"iid_case.checks": 1}


# (module, attribute, span name, aggregate, counter). The attribute is looked
# up where the caller looks it up: a module global or a class attribute.
PATCHES = [
    ("evbet.cli", "main", "cli.main", False, None),
    ("evbet.domain", "parse_distribution", "domain.parse_distribution", False, None),
    ("evbet.domain", "sample_stream", "domain.sample_stream", False, _draws),
    ("evbet.betting", "up_update", "betting.up_update", True, None),
    ("evbet.betting", "up_bet", "betting.up_bet", True, None),
    ("evbet.kernels", "up_game_batch", "kernels.up_game_batch", False, _node_updates),
    ("evbet.game", "run_game", "game.run_game", False, _ledger_rounds),
    ("evbet.game", "run_games_batch", "game.run_games_batch", False, _batch_rounds),
    ("evbet.confseq", "run_games_batch", "game.run_games_batch", False, _batch_rounds),
    ("evbet.confseq", "run_cs_batch", "confseq.run_cs_batch", False, None),
    ("evbet.confseq", "CsResult.intervals", "confseq.intervals", False, None),
    ("evbet.evariables", "check_evariable", "evariables.check_evariable", False, _validity),
    ("evbet.evariables", "beta_interval", "evariables.beta_interval", False, None),
    ("evbet.multiround", "check_evariable", "evariables.check_evariable", False, _validity),
    ("evbet.multiround", "beta_interval", "evariables.beta_interval", False, None),
    ("evbet.multiround", "eprocess_from_csv", "multiround.eprocess_from_csv", False, None),
    ("evbet.multiround", "audit_eprocess", "multiround.audit_eprocess", False, _audit),
    ("evbet.multiround", "dominate_T2", "multiround.dominate_T2", False, _t2),
    ("evbet.iid_case", "xi_stats", "iid_case.xi_stats", False, _iid),
    ("evbet.iid_case", "check_iid_closed_form", "iid_case.check_iid_closed_form", False, None),
    ("evbet.iid_case", "check_iid_bruteforce", "iid_case.check_iid_bruteforce", False, None),
]


def _wrap(tracer, name, fn, aggregate, counter):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, aggregate, counter)

    return wrapper


def install(tracer: Tracer):
    """Patch every wrapper in; returns a function that restores the originals."""
    undo = []
    for module, attr, name, aggregate, counter in PATCHES:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        setattr(owner, leaf, _wrap(tracer, name, original, aggregate, counter))
        undo.append((owner, leaf, original))

    def restore():
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return restore
