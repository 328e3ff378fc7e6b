"""``evbet`` command line: simulations, confidence sequences, validity checks.

Every command is deterministic given its options (including ``--seed``);
tabular results go to ``--out`` (default stdout) as CSV, verdicts and
summaries are printed as JSON. Exit codes: 0 on success, 2 on configuration
or parse errors, unreadable inputs, outputs that fail to open, write, flush
or close, and failed allocations (one handler, ``_Command.invoke``, for
every command), 3 when ``--strict`` is set and the verdict is a refutation.
A broken pipe on stdout (``evbet cs ... | head -1``) exits 1 quietly, as
click does. ``simulate``, ``cs`` and ``compare`` open every output once
their arguments are checked and before they sample, so an unwritable path
costs no computation; when such a run exits 2, the files it created are
removed (a file that already existed is left truncated).

``cs`` and ``simulate`` run every strategy through the batch kernel
(``game.run_games_batch``); on data that are all 0 or 1 the universal
portfolio takes the u-posterior route of ``kernels.up_game_batch`` (one
posterior pass per stream), which keeps the exact posterior up to
rounding, as the object-path strategy does.
``simulate`` scores the kernel's bets in bulk with ``game.score_bets``, so
its ledger recomputes exactly from its e-values. The object path
(``betting.UniversalPortfolioStrategy`` played by ``game.run_game``) is not
run here: it is the reference the tests compare the kernels against.

``audit`` takes a table's grid from the points of its paths and runs the
exact search of ``multiround.audit_eprocess`` on it, so its verdict holds for
every mean-``mu`` sequential law on that grid up to ``--depth``. Its
``--seed`` has no effect and is kept only so that scripts passing it still
run.

Every table (the ``simulate`` ledger, the ``cs`` intervals and membership
matrix, ``compare``'s rows) has one row source and goes through the package's
one table writer, ``domain.write_table``: ``--format json`` records, or CSV
lines from the table's own f-string, joined in blocks of rows, byte for byte
what ``csv.writer`` writes.

Each command imports the modules it runs when it runs, so a command loads no
other command's modules. Every library module binds numpy lazily
(``evbet._lazy``), so numpy runs only when a command first computes on arrays
(``cs``, ``simulate``, ``compare``, ``check``, ``dominate`` and
``iid-check``): ``import evbet.cli``, ``--help``, ``--version``, usage errors
and ``audit`` never run it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys

import click

from . import __version__
from .errors import EvbetError, NotAnEVariable


# What a command turns into exit 2 with its message: bad arguments and data,
# unreadable inputs, unwritable outputs and allocations that fail.
_BOUNDARY_ERRORS = (MemoryError, OSError, ValueError, EvbetError)


class _Command(click.Command):
    """A command whose boundary errors exit 2 with their message and its usage line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's own quiet exit 1
        except _BOUNDARY_ERRORS as exc:
            raise click.UsageError(str(exc), ctx) from exc


@contextlib.contextmanager
def _outputs(*paths):
    """Open each output path for writing, before the command computes.

    Yields a ``(name, handle)`` pair per path, ``("stdout", sys.stdout)`` for None
    or '-'. Afterwards stdout is flushed and the files closed here, so a failed
    write fails the command. If the command fails, every file this run created
    is removed; one that existed stays, truncated, as shell redirection leaves it.
    """
    from .domain import naming

    outputs, created = [], []
    try:
        for path in paths:
            if path is None or path == "-":
                outputs.append(("stdout", sys.stdout))
                continue
            with naming(path):
                try:
                    outputs.append((path, open(path, "x", newline="")))
                    created.append(path)
                except FileExistsError:
                    outputs.append((path, open(path, "w", newline="")))
        yield outputs
        with naming("stdout"):
            sys.stdout.flush()
        for name, fh in outputs:
            if fh is not sys.stdout:
                with naming(name):
                    fh.close()
    except BaseException:
        for _, fh in outputs:
            if fh is not sys.stdout:
                with contextlib.suppress(OSError):
                    fh.close()
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


LEDGER_HEADER = ("t", "x", "lambda", "e_value", "log_wealth", "rejected")


def ledger_rows(ledger):
    """One ``LEDGER_HEADER`` tuple per round; ``rejected`` is 1 from the rejection on."""
    n = len(ledger.x)
    before = n if ledger.rejected_at is None else ledger.rejected_at - 1
    rejected = itertools.chain(itertools.repeat(0, before), itertools.repeat(1, n - before))
    return zip(range(1, n + 1), ledger.x, ledger.lam, ledger.e_value, ledger.log_wealth, rejected)


def _membership_rows(result, mus):
    """Round-major ``(t, mu, log_wealth, in_set)`` rows, ``mu`` from ``mus``, read a
    block of rounds at a time, so no list of n x grid rows is ever held."""
    from .domain import _BLOCK_ROWS

    step = max(1, _BLOCK_ROWS // len(mus))
    return itertools.chain.from_iterable(  # row by row in C, no generator frame per row
        zip(itertools.repeat(t), mus, w_row, in_row)
        for t0 in range(0, len(result.in_set), step)
        for t, w_row, in_row in zip(
            itertools.count(t0 + 1),
            result.games.log_wealth[:, t0 : t0 + step].T.tolist(),
            result.in_set[t0 : t0 + step].view("uint8").tolist(),
        )
    )


def _echo_json(obj):
    click.echo(json.dumps(obj, indent=2))


def _witness(refutation):
    """The violating two-point measure of a ``NotAnEVariable`` refutation, as JSON."""
    w = refutation.witness
    return {"a": w.a, "b": w.b, "w": w.w, "expectation": refutation.expectation}


def _tree_witness(refutation):
    """The violating depth-2 tree of a ``T2Refutation``, as JSON."""
    return {"d": [list(p) for p in refutation.tree.pairs], "expectation": refutation.expectation}


def _checked_table(table, mu):
    """Load and certify a ``point,value`` table: ``(cert, None)`` or ``(None, refutation)``."""
    from . import evariables

    tab = evariables.tabulated_from_csv(table, mu)
    try:
        return evariables.beta_interval(tab), None
    except NotAnEVariable as exc:
        if exc.witness is None:  # valid, but its slope interval is inverted beyond rounding
            raise
        return None, exc


def _strict_exit(ctx, strict, refuted):
    if strict and refuted:
        ctx.exit(3)


fmt_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)


@click.group(cls=type("_Group", (click.Group,), {"command_class": _Command}))
@click.version_option(__version__)  # also when run from a source tree
def main():
    """Anytime-valid mean testing via coin-betting e-variables."""


@main.command()
@click.option("--mu", type=float, required=True, help="Hypothesised mean in (0, 1).")
@click.option("--dist", required=True, help="Data distribution literal (e.g. bernoulli:0.5).")
@click.option("--strategy", default="up", show_default=True, help="constant:<lambda> or up[:K].")
@click.option("--n", type=int, required=True, help="Number of rounds.")
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default=None, help="Ledger CSV path ('-' for stdout).")
@fmt_option
@click.pass_context
def simulate(ctx, mu, dist, strategy, n, delta, seed, out, fmt):
    """Play one testing game and write its ledger plus a summary."""
    import numpy as np

    from . import domain, game

    distribution = domain.parse_distribution(dist)
    game.check_strategy(strategy, np.array([mu]))  # before sampling
    if n < 1:
        raise ValueError("n must be at least 1")
    with _outputs(out) as (dest,):
        xs = domain.sample_stream(distribution, n, seed)
        # One-row batch: the kernel computes the bets, score_bets scores them.
        batch = game.run_games_batch(np.array([mu]), xs[None, :], strategy, delta)
        ledger = game.score_bets(mu, delta, batch.bets[0], xs)
        domain.write_table(
            dest, LEDGER_HEADER, ledger_rows(ledger), fmt,
            lambda rows: [f"{t},{x!r},{lam!r},{e!r},{w!r},{r}\r\n" for t, x, lam, e, w, r in rows],
        )
    _echo_json(
        {
            "rejected_at": ledger.rejected_at,
            "final_log_wealth": ledger.final_log_wealth,
            "threshold": ledger.threshold,
        }
    )


@main.command()
@click.option("--dist", required=True, help="Data distribution literal.")
@click.option("--strategy", default="up", show_default=True)
@click.option("--n", type=int, required=True)
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--grid", type=int, default=99, show_default=True, help="Candidate-mean grid size.")
@click.option("--running-intersect", is_flag=True, help="Report intersected (nested) sets.")
@click.option("--out", default=None, help="CSV path for t,lower,upper,alive rows.")
@click.option("--membership", default=None, help="Optional CSV path for the full membership matrix.")
@fmt_option
@click.pass_context
def cs(ctx, dist, strategy, n, delta, seed, grid, running_intersect, out, membership, fmt):
    """Confidence sequence for the data mean over a candidate grid."""
    from . import confseq, domain, game

    distribution = domain.parse_distribution(dist)
    if n < 1 or grid < 1:
        raise ValueError("n and grid must be at least 1")
    mu_grid = confseq.default_mu_grid(grid)
    game.check_strategy(strategy, mu_grid)  # before sampling
    paths = [out] if membership is None else [out, membership]
    with _outputs(*paths) as dests:
        xs = domain.sample_stream(distribution, n, seed)
        result = confseq.run_cs_batch(mu_grid, xs, strategy, delta, running_intersect)
        domain.write_table(
            dests[0], ("t", "lower", "upper", "alive"), result.intervals(), fmt,
            lambda rows: [f"{t},{lo!r},{hi!r},{alive}\r\n" for t, lo, hi, alive in rows],
        )
        if membership is None:
            return
        mus = mu_grid.tolist()
        if fmt == "csv":
            mus = list(map(repr, mus))  # each mu formatted once per run, not once per row
        domain.write_table(
            dests[1], ("t", "mu", "log_wealth", "in_set"), _membership_rows(result, mus), fmt,
            lambda rows: [f"{t},{mu},{w!r},{alive}\r\n" for t, mu, w, alive in rows],
        )


@main.command()
@click.option("--mu", type=float, required=True)
@click.option("--dist", required=True)
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--alpha", type=float, default=None, help="Constant Hoeffding schedule.")
@click.option("--alpha-file", default=None, help="File with one alpha per round.")
@click.option("--out", default=None)
@fmt_option
@click.pass_context
def compare(ctx, mu, dist, n, seed, alpha, alpha_file, out, fmt):
    """Run a Hoeffding-schedule game against its dominating coin-bet shadow."""
    import numpy as np

    from . import domain, evariables

    if (alpha is None) == (alpha_file is None):
        raise ValueError("provide exactly one of --alpha / --alpha-file")
    distribution = domain.parse_distribution(dist)
    if n < 1:
        raise ValueError("n must be at least 1")
    if alpha_file is not None:
        schedule = domain.read_numbers(alpha_file)
        if len(schedule) < n:
            raise ValueError(f"alpha file has {len(schedule)} entries, need {n}")
        schedule = np.asarray(schedule[:n])
    else:
        schedule = np.full(n, alpha)
    lams = np.array([evariables.dominating_lambda(mu, a) for a in schedule])
    with _outputs(out) as (dest,):
        xs = domain.sample_stream(distribution, n, seed)
        with np.errstate(over="ignore"):
            log_h = np.cumsum(schedule * (xs - mu) - schedule**2 / 8.0)
        finite = np.isfinite(log_h)
        if not finite.all():
            t = int(finite.argmin()) + 1
            raise ValueError(f"alpha is too large: the Hoeffding log-wealth overflows at round {t}")
        log_cb = np.cumsum(np.log1p(lams * (xs - mu)))
        rows = zip(range(1, n + 1), log_h.tolist(), log_cb.tolist(), (log_cb - log_h).tolist())
        domain.write_table(
            dest, ("t", "logW_hoeffding", "logW_coinbet", "gap"), rows, fmt,
            lambda rows: [f"{t},{h!r},{cb!r},{gap!r}\r\n" for t, h, cb, gap in rows],
        )


@main.command()
@click.option("--table", required=True, help="point,value CSV of the candidate e-variable.")
@click.option("--mu", type=float, required=True)
@click.option("--strict", is_flag=True)
@click.pass_context
def check(ctx, table, mu, strict):
    """Validity check of a tabulated e-variable, with its domination certificate."""
    cert, refutation = _checked_table(table, mu)
    verdict = {"valid": cert is not None, "witness": None, "certificate": None}
    if cert is not None:
        verdict["certificate"] = cert.as_dict()
    else:
        verdict["witness"] = _witness(refutation)
    _echo_json(verdict)
    _strict_exit(ctx, strict, cert is None)


@main.command()
@click.option("--table", required=True, help="Candidate table CSV.")
@click.option("--mu", type=float, required=True)
@click.option("--t2", is_flag=True, help="Two-round table (x1,x2,value CSV) over a grid square.")
@click.option("--strict", is_flag=True)
@click.pass_context
def dominate(ctx, table, mu, t2, strict):
    """Construct a dominating coin-bet (single- or two-round), or refute."""
    from . import domain, multiround

    if not t2:
        cert, refutation = _checked_table(table, mu)
        if cert is None:
            _echo_json({"certified": False, "witness": _witness(refutation)})
            _strict_exit(ctx, strict, True)
            return
        _echo_json({"certified": True, **cert.as_dict()})
        return

    points, values = domain.square_table_from_csv(table)
    result = multiround.dominate_T2(values, domain.SampleSpace(points, mu))
    if result.certified:
        lam2 = {repr(k[0]): v for k, v in result.coinbet.tables[1].items()}
        _echo_json(
            {"certified": True, "lambda1": result.coinbet.tables[0][()], "lambda2": lam2}
        )
    else:
        _echo_json({"certified": False, "witness": _tree_witness(result.refutation)})
        _strict_exit(ctx, strict, True)


@main.command()
@click.option("--table", required=True, help="depth,path,value CSV of the e-process.")
@click.option("--mu", type=float, required=True)
@click.option("--depth", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Has no effect: the search draws nothing at random.")
@click.option("--strict", is_flag=True)
@click.pass_context
def audit(ctx, table, mu, depth, seed, strict):
    """Search two-point trees and stopping masks for an e-process violation.

    The table's points, which must include 0 and 1, are its grid. Every
    stopping time up to --depth under every mean-mu law on that grid is
    searched, so the verdict is exact there.
    """
    from . import multiround

    process = multiround.eprocess_from_csv(table, mu)
    report = multiround.audit_eprocess(process, depth)
    _echo_json(report.as_dict())
    _strict_exit(ctx, strict, not report.passed)


@main.command("iid-check")
@click.option("--table", default=None, help="x1,x2,value CSV over {0,1/2,1}^2.")
@click.option("--xi", default=None, help="Comma-separated xi0,xi1,xi2.")
@click.option("--q-steps", type=int, default=10_000, show_default=True)
@click.option("--strict", is_flag=True)
@click.pass_context
def iid_check(ctx, table, xi, q_steps, strict):
    """Check a table against the two-draw i.i.d. hypothesis on {0, 1/2, 1}.

    Reports both the closed-form and brute-force verdicts; with a full table,
    also whether the table survives the (strictly larger) conditional-mean
    hypothesis via the two-round domination construction.
    """
    from . import domain, iid_case, multiround

    if (table is None) == (xi is None):
        raise ValueError("provide exactly one of --table / --xi")
    conditional = None
    if table is not None:
        values = domain.square_table_from_csv(table, iid_case.GRID)[1]
        stats = iid_case.xi_stats(values)
        space = domain.SampleSpace(iid_case.GRID, iid_case.MU)
        conditional = multiround.dominate_T2(values, space)
    else:
        parts = [float(v) for v in xi.split(",")]
        if len(parts) != 3:
            raise ValueError("--xi needs exactly three values")
        stats = iid_case.XiStats(*parts)
    brute = iid_case.check_iid_bruteforce(stats, q_steps)
    closed = iid_case.check_iid_closed_form(stats)
    verdict = {
        "xi": [stats.xi0, stats.xi1, stats.xi2],
        "closed_form_valid": closed,
        "brute_force": {
            "max_expectation": brute.max_expectation,
            "argmax_q": brute.argmax_q,
            "valid": brute.max_expectation <= 1.0 + 1e-9,
        },
        "iid_valid": closed,
    }
    if conditional is not None:
        verdict["conditional_valid"] = conditional.certified
        if not conditional.certified:
            verdict["conditional_witness"] = _tree_witness(conditional.refutation)
    _echo_json(verdict)
    _strict_exit(ctx, strict, not closed)


if __name__ == "__main__":
    main()
