"""``evbet`` command line: simulations, confidence sequences, validity checks.

Every command is deterministic given its options (including ``--seed``);
tabular results go to ``--out`` (default stdout) as CSV, verdicts and
summaries are printed as JSON. Exit codes: 0 on success, 2 on configuration
or parse errors, 3 when ``--strict`` is set and the command's verdict is a
refutation. ``EVBET_BACKEND`` forces the python or cython kernel;
``EVBET_THREADS`` caps the threads of the compiled kernel only, as the numpy
kernel is single-threaded.

``cs`` and ``simulate`` run every strategy through the batch kernel
(``game.run_games_batch``); on data that are all 0 or 1 the universal
portfolio takes the u-posterior path (one posterior pass per stream, whatever
``EVBET_BACKEND`` says), which keeps the exact posterior up to rounding, as
the object-path strategy does. ``simulate`` scores the kernel's bets in bulk
with ``game.score_bets``, so its ledger recomputes exactly from its e-values.
``--up-raw`` plays the object-path strategy through ``game.run_game``.

The two large CSV outputs, the ``simulate`` ledger (``game.ledger_to_csv``)
and the ``cs --membership`` matrix, are joined from f-strings in blocks of
rows, byte for byte what ``csv.writer`` would write; the other tables and
every ``--format json`` output go through ``_write_rows``.

Each command imports the modules it runs when it runs, so a command loads no
other command's modules.
"""

from __future__ import annotations

import csv
import json
import sys

import click
import numpy as np

from .errors import EvbetError


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_text(path, write):
    """Call ``write(fh)`` on the output named by ``path`` (stdout for None or '-')."""
    fh, close = _open_out(path)
    try:
        write(fh)
    finally:
        if close:
            fh.close()


def _membership_csv(fh, result, n, block_rows):
    """Round-major ``t,mu,log_wealth,in_set`` rows, byte for byte as ``csv.writer`` would.

    Floats are written by ``repr`` and lines end in CRLF. The text is built
    about ``block_rows`` rows at a time, so no list of n x grid rows is ever held.
    """
    mu_cols = [f",{mu!r}," for mu in result.mu_grid.tolist()]
    step = max(1, block_rows // len(mu_cols))
    fh.write("t,mu,log_wealth,in_set\r\n")
    for t0 in range(0, n, step):
        log_wealth = result.games.log_wealth[:, t0 : t0 + step].T.tolist()
        in_set = result.in_set[t0 : t0 + step].view(np.uint8).tolist()
        fh.write(
            "".join(
                f"{t}{mu_col}{w!r},{alive}\r\n"
                for t, w_row, in_row in zip(range(t0 + 1, n + 1), log_wealth, in_set)
                for mu_col, w, alive in zip(mu_cols, w_row, in_row)
            )
        )


def _write_rows(path, header, rows, fmt):
    fh, close = _open_out(path)
    try:
        if fmt == "json":
            payload = [dict(zip(header, row)) for row in rows]
            fh.write(json.dumps(payload, indent=2))
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    finally:
        if close:
            fh.close()


def _echo_json(obj):
    click.echo(json.dumps(obj, indent=2))


def _fail(message):
    raise click.UsageError(message)


def _strict_exit(ctx, strict, refuted):
    if strict and refuted:
        ctx.exit(3)


fmt_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)


@click.group()
@click.version_option()
def main():
    """Anytime-valid mean testing via coin-betting e-variables."""


@main.command()
@click.option("--mu", type=float, required=True, help="Hypothesised mean in (0, 1).")
@click.option("--dist", required=True, help="Data distribution literal (e.g. bernoulli:0.5).")
@click.option("--strategy", default="up", show_default=True, help="constant:<lambda> or up[:K].")
@click.option("--n", type=int, required=True, help="Number of rounds.")
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--up-raw", is_flag=True, help="Uncentered portfolio reweighting (comparison only).")
@click.option("--out", default=None, help="Ledger CSV path ('-' for stdout).")
@fmt_option
@click.pass_context
def simulate(ctx, mu, dist, strategy, n, delta, seed, up_raw, out, fmt):
    """Play one testing game and write its ledger plus a summary."""
    from . import domain, game
    from .betting import make_strategy

    try:
        distribution = domain.parse_distribution(dist)
        strat = make_strategy(strategy, mu, raw=up_raw)
        if n < 1:
            raise ValueError("n must be at least 1")
        xs = domain.sample_stream(distribution, n, seed)
        if up_raw:
            ledger = game.run_game(mu, delta, strat, xs)
        else:
            # One-row batch: the kernel computes the bets, score_bets scores them.
            batch = game.run_games_batch(np.array([mu]), xs[None, :], strategy, delta)
            ledger = game.score_bets(mu, delta, batch.bets[0], xs)
    except (ValueError, EvbetError) as exc:
        _fail(str(exc))
    if fmt == "json":
        _write_rows(out, game.LEDGER_HEADER, game.ledger_rows(ledger), fmt)
    else:
        _write_text(out, lambda fh: game.ledger_to_csv(ledger, fh))
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
    from .betting import make_strategy

    try:
        distribution = domain.parse_distribution(dist)
        if n < 1 or grid < 1:
            raise ValueError("n and grid must be at least 1")
        make_strategy(strategy, 0.5)  # validate the literal early
        xs = domain.sample_stream(distribution, n, seed)
        mu_grid = confseq.default_mu_grid(grid)
        result = confseq.run_cs_batch(mu_grid, xs, strategy, delta, running_intersect)
    except (ValueError, EvbetError) as exc:
        _fail(str(exc))
    rows = result.intervals()
    _write_rows(out, ["t", "lower", "upper", "alive"], rows, fmt)
    if membership is None:
        return
    if fmt == "json":
        # Round-major rows (t, mu, log_wealth, in_set), one per round and candidate.
        mrows = zip(
            np.repeat(np.arange(1, n + 1), grid).tolist(),
            np.tile(mu_grid, n).tolist(),
            result.games.log_wealth.T.ravel().tolist(),
            result.in_set.ravel().astype(int).tolist(),
        )
        _write_rows(membership, ["t", "mu", "log_wealth", "in_set"], mrows, fmt)
    else:
        _write_text(membership, lambda fh: _membership_csv(fh, result, n, game.CSV_BLOCK_ROWS))


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
    from . import domain, evariables

    try:
        if (alpha is None) == (alpha_file is None):
            raise ValueError("provide exactly one of --alpha / --alpha-file")
        distribution = domain.parse_distribution(dist)
        if n < 1:
            raise ValueError("n must be at least 1")
        if alpha_file is not None:
            with open(alpha_file) as fh:
                schedule = [float(line) for line in fh if line.strip()]
            if len(schedule) < n:
                raise ValueError(f"alpha file has {len(schedule)} entries, need {n}")
            schedule = np.asarray(schedule[:n])
        else:
            schedule = np.full(n, alpha)
        lams = np.array([evariables.dominating_lambda(mu, a) for a in schedule])
        xs = domain.sample_stream(distribution, n, seed)
        with np.errstate(over="ignore"):
            log_h = np.cumsum(schedule * (xs - mu) - schedule**2 / 8.0)
        finite = np.isfinite(log_h)
        if not finite.all():
            t = int(finite.argmin()) + 1
            raise ValueError(
                f"alpha is too large: the Hoeffding log-wealth overflows at round {t}"
            )
    except (OSError, ValueError, EvbetError) as exc:
        _fail(str(exc))

    log_cb = np.cumsum(np.log1p(lams * (xs - mu)))
    rows = [
        (t + 1, float(log_h[t]), float(log_cb[t]), float(log_cb[t] - log_h[t]))
        for t in range(n)
    ]
    _write_rows(out, ["t", "logW_hoeffding", "logW_coinbet", "gap"], rows, fmt)


@main.command()
@click.option("--table", required=True, help="point,value CSV of the candidate e-variable.")
@click.option("--mu", type=float, required=True)
@click.option("--strict", is_flag=True)
@click.pass_context
def check(ctx, table, mu, strict):
    """Validity check of a tabulated e-variable, with its domination certificate."""
    from . import evariables

    try:
        tab = evariables.tabulated_from_csv(table, mu)
        report = evariables.check_evariable(tab)
        # A valid table whose slope interval is inverted beyond rounding raises.
        cert = evariables.beta_interval(tab) if report.valid else None
    except (OSError, ValueError, EvbetError) as exc:
        _fail(str(exc))
    verdict = {"valid": report.valid, "witness": None, "certificate": None}
    if report.valid:
        verdict["certificate"] = cert.as_dict()
    else:
        verdict["witness"] = {
            "a": report.witness.a,
            "b": report.witness.b,
            "w": report.witness.w,
            "expectation": report.expectation,
        }
    _echo_json(verdict)
    _strict_exit(ctx, strict, not report.valid)


@main.command()
@click.option("--table", required=True, help="Candidate table CSV.")
@click.option("--mu", type=float, required=True)
@click.option("--t2", is_flag=True, help="Two-round table (x1,x2,value CSV) over a grid square.")
@click.option("--strict", is_flag=True)
@click.pass_context
def dominate(ctx, table, mu, t2, strict):
    """Construct a dominating coin-bet (single- or two-round), or refute."""
    from . import domain, evariables, multiround

    if not t2:
        try:
            tab = evariables.tabulated_from_csv(table, mu)
            report = evariables.check_evariable(tab)
            cert = evariables.beta_interval(tab) if report.valid else None
        except (OSError, ValueError, EvbetError) as exc:
            _fail(str(exc))
        if not report.valid:
            _echo_json(
                {
                    "certified": False,
                    "witness": {
                        "a": report.witness.a,
                        "b": report.witness.b,
                        "w": report.witness.w,
                        "expectation": report.expectation,
                    },
                }
            )
            _strict_exit(ctx, strict, True)
            return
        _echo_json({"certified": True, **cert.as_dict()})
        return

    try:
        points, values = domain.square_table_from_csv(table)
        result = multiround.dominate_T2(values, domain.SampleSpace(points, mu))
    except (OSError, ValueError, EvbetError) as exc:
        _fail(str(exc))
    if result.certified:
        lam2 = {repr(k[0]): v for k, v in result.coinbet.tables[1].items()}
        _echo_json(
            {"certified": True, "lambda1": result.coinbet.tables[0][()], "lambda2": lam2}
        )
    else:
        _echo_json(
            {
                "certified": False,
                "witness": {
                    "d": [list(p) for p in result.refutation.tree.pairs],
                    "expectation": result.refutation.expectation,
                },
            }
        )
        _strict_exit(ctx, strict, True)


@main.command()
@click.option("--table", required=True, help="depth,path,value CSV of the e-process.")
@click.option("--mu", type=float, required=True)
@click.option("--depth", type=int, default=3, show_default=True)
@click.option("--coarse-grid", default=None, help="Comma-separated points (default 0,mu,1).")
@click.option("--random", "n_random", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--strict", is_flag=True)
@click.pass_context
def audit(ctx, table, mu, depth, coarse_grid, n_random, seed, strict):
    """Search two-point trees and stopping masks for an e-process violation."""
    from . import multiround

    try:
        process = multiround.eprocess_from_csv(table, mu)
        grid = None
        if coarse_grid is not None:
            grid = tuple(float(p) for p in coarse_grid.split(","))
        report = multiround.audit_eprocess(
            process, depth, coarse_grid=grid, n_random=n_random, seed=seed
        )
    except (OSError, ValueError, EvbetError) as exc:
        _fail(str(exc))
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

    try:
        if (table is None) == (xi is None):
            raise ValueError("provide exactly one of --table / --xi")
        conditional = None
        if table is not None:
            values = iid_case.table_from_csv(table)
            stats = iid_case.xi_stats(values)
            space = domain.SampleSpace(iid_case.GRID, iid_case.MU)
            conditional = multiround.dominate_T2(values, space)
        else:
            parts = [float(v) for v in xi.split(",")]
            if len(parts) != 3:
                raise ValueError("--xi needs exactly three values")
            stats = iid_case.XiStats(*parts)
        brute = iid_case.check_iid_bruteforce(stats, q_steps)
    except (OSError, ValueError, EvbetError) as exc:
        _fail(str(exc))

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
            verdict["conditional_witness"] = {
                "d": [list(p) for p in conditional.refutation.tree.pairs],
                "expectation": conditional.refutation.expectation,
            }
    _echo_json(verdict)
    _strict_exit(ctx, strict, not closed)


if __name__ == "__main__":
    main()
