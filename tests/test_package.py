import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evbet
from evbet import errors

SRC = str(Path(evbet.__file__).resolve().parents[1])

# The package's top-level names, by the module that defines each.
TOP_LEVEL = {
    "domain": ["DiscreteDistribution", "SampleSpace", "TwoPointMeasure", "anchored_two_point",
               "bet_bounds", "sample_stream"],
    "evariables": ["CoinBetEVariable", "DominationCertificate", "HoeffdingEVariable",
                   "TabulatedEVariable", "beta_interval", "check_evariable",
                   "dominating_lambda", "eval_majorizer"],
    "betting": ["ConstantStrategy", "PortfolioPosterior", "UniversalPortfolioStrategy", "up_bet",
                "up_update"],
    "game": ["WealthLedger", "run_game", "run_games_batch", "score_bets"],
    "confseq": ["default_mu_grid", "run_cs_batch"],
    "multiround": ["EProcess", "MultiRoundCoinBet", "StoppingMask", "TreeHypothesis",
                   "audit_eprocess", "dominate_T2", "dominate_eprocess", "enumerate_masks",
                   "tree_expectation"],
    "iid_case": ["XiStats", "check_iid_bruteforce", "check_iid_closed_form", "xi_stats"],
}


def run_fresh(code, drop=(), **env):
    """What a fresh interpreter prints running ``code``, with the variables named in
    ``drop`` removed from its environment and ``env`` added to it."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    inherited = {k: v for k, v in os.environ.items() if k not in drop}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**inherited, **env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def loaded_after(statement, package="evbet"):
    """The modules of ``package`` a fresh interpreter holds after running ``statement``."""
    listing = f"print(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    return run_fresh(f"import sys; {statement}; {listing}").split()


def numpy_ran_after(code):
    """Whether a fresh interpreter has executed numpy after running ``code``.

    numpy's own code imports its submodules (``numpy._core`` among them), so
    any ``numpy.*`` entry of ``sys.modules`` means numpy ran; a ``numpy``
    entry alone is the module bound lazily, not yet executed.
    """
    check = "print(any(m.startswith('numpy.') for m in sys.modules))"
    return run_fresh(f"import sys\n{code}\n{check}").split()[-1] == "True"


def cli_call(args):
    """Code running ``evbet <args>`` in a fresh interpreter; a non-zero exit fails the run."""
    return (
        "from evbet.cli import main\n"
        f"try:\n    main({args!r})\n"
        "except SystemExit as exc:\n    assert not exc.code, exc.code\n"
    )


def test_cli_import_runs_no_numpy():
    assert not numpy_ran_after("import evbet.cli")


def test_help_runs_no_numpy():
    assert not numpy_ran_after(cli_call(["--help"]))


def test_version_runs_no_numpy():
    code = cli_call(["--version"])
    assert run_fresh(code).split()[-2:] == ["version", "0.1.0"]
    assert not numpy_ran_after(code)


def test_grid_audit_runs_no_numpy(tmp_path):
    from evbet.domain import SampleSpace
    from evbet.multiround import constant_eprocess, eprocess_to_csv

    table = tmp_path / "ep3.csv"
    with open(table, "w", newline="") as fh:
        eprocess_to_csv(constant_eprocess(0.5), SampleSpace.uniform(5, 0.5), 3, fh)
    audit = ["audit", "--table", str(table), "--mu", "0.5", "--depth", "3"]
    assert not numpy_ran_after(cli_call(audit))


def test_audit_without_a_space_runs_no_numpy():
    code = (
        "from evbet.multiround import audit_eprocess, constant_eprocess, dominate_eprocess\n"
        "audit_eprocess(constant_eprocess(0.5), 3)\n"
        "dominate_eprocess(constant_eprocess(0.5), 3)"
    )
    assert not numpy_ran_after(code)


def test_scan_and_audit_run_where_numpy_cannot_be_imported():
    # None in sys.modules makes every `import numpy` raise ImportError.
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n    import numpy\nexcept ImportError:\n    pass\n"
        "else:\n    raise SystemExit('numpy imported')\n"
        "from evbet.domain import SampleSpace, mean_mu_laws, worst_law\n"
        "from evbet.multiround import MultiRoundCoinBet, audit_eprocess, coinbet_eprocess\n"
        "from evbet.multiround import constant_eprocess\n"
        "space = SampleSpace((0.0, 0.25, 0.5, 0.75, 1.0), 0.5)\n"
        "laws = mean_mu_laws(space.points, space.mu)\n"
        "print(*worst_law(laws, (2.0, 0.0, 1.0, 0.0, 2.0), 1.0))\n"
        "bet = MultiRoundCoinBet(0.5, ({(): 1.0}, {(x,): -1.0 for x in space.points}))\n"
        "scaled = coinbet_eprocess(bet, space).scale_at(2, 1.5)\n"
        "print(audit_eprocess(constant_eprocess(0.5), 3).passed,\n"
        "      audit_eprocess(coinbet_eprocess(bet, space), 2).max_expectation,\n"
        "      audit_eprocess(scaled, 2).passed)\n"
        "from evbet.multiround import dominate_eprocess\n"
        "print(dominate_eprocess(coinbet_eprocess(bet, space), 2) == bet,\n"
        "      dominate_eprocess(scaled, 2).max_expectation)\n"
        "from evbet.evariables import TabulatedEVariable, beta_interval, check_evariable\n"
        "from evbet.multiround import dominate_T2\n"
        "coinbet = TabulatedEVariable(space, (1.5, 1.25, 1.0, 0.75, 0.5))\n"
        "refuted = check_evariable(TabulatedEVariable(space, (2.0, 1.0, 1.0, 1.0, 2.0)))\n"
        "print(check_evariable(coinbet).valid, beta_interval(coinbet).lambda_hat,\n"
        "      refuted.witness.a, refuted.witness.b, refuted.expectation)\n"
        "ones, twos = ((1.0,) * 5,) * 5, ((2.0,) * 5,) * 5\n"
        "print(dominate_T2(ones, space).coinbet.tables[0][()],\n"
        "      dominate_T2(twos, space).refutation.expectation)\n"
    )
    assert run_fresh(code).splitlines() == [
        "(0, 4, 0.5, 0.5) 2.0", "True 1.0 False", "True 1.5", "True -1.0 0.0 1.0 2.0",
        "0.0 2.0",
    ]


@pytest.mark.parametrize("values", [(1.5, 1.0, 0.5), (2.0, 1.0, 2.0)], ids=["valid", "invalid"])
@pytest.mark.parametrize("command", ["check", "dominate"])
def test_check_and_dominate_run_no_numpy(tmp_path, command, values):
    table = tmp_path / "t.csv"
    table.write_text("point,value\n" + "".join(f"{p},{v}\n" for p, v in zip((0.0, 0.5, 1.0), values)))
    assert not numpy_ran_after(cli_call([command, "--table", str(table), "--mu", "0.5"]))


@pytest.mark.parametrize(
    "cells",
    [((1.0,) * 3,) * 3, ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 4.0, 0.0))],
    ids=["valid", "invalid"],
)
def test_dominate_t2_runs_no_numpy(tmp_path, cells):
    grid = (0.0, 0.5, 1.0)
    table = tmp_path / "t2.csv"
    table.write_text("x1,x2,value\n" + "".join(
        f"{x},{y},{v}\n" for x, row in zip(grid, cells) for y, v in zip(grid, row)))
    args = ["dominate", "--table", str(table), "--mu", "0.5", "--t2"]
    assert not numpy_ran_after(cli_call(args))


def test_iid_check_xi_runs_no_numpy():
    assert not numpy_ran_after(cli_call(["iid-check", "--xi", "1,1,1"]))


def test_iid_check_table_runs_no_numpy(tmp_path):
    # The separation table: 4 at (1, 1/2), 0 elsewhere.
    grid = (0.0, 0.5, 1.0)
    table = tmp_path / "sep.csv"
    table.write_text("x1,x2,value\n" + "".join(
        f"{x},{y},{4.0 if (x, y) == (1.0, 0.5) else 0.0}\n" for x in grid for y in grid))
    assert not numpy_ran_after(cli_call(["iid-check", "--table", str(table)]))


@pytest.mark.parametrize("module", sorted(TOP_LEVEL) + ["kernels"])
def test_library_module_import_runs_no_numpy(module):
    # Every library module that uses numpy binds it through evbet._lazy.
    assert not numpy_ran_after(f"import evbet.{module}")


def test_first_array_call_runs_numpy():
    assert numpy_ran_after("import evbet.confseq\nevbet.confseq.default_mu_grid(9)")


CS_SMALL = ["cs", "--dist", "bernoulli:0.5", "--n", "5", "--grid", "9", "--strategy", "up:11"]


def test_cs_runs_numpy():
    assert numpy_ran_after(cli_call(CS_SMALL))


# What OpenBLAS reads, in this order, for the size of its thread pool.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def environment_changes(code, **env):
    """The variables a fresh interpreter sets or changes running ``code``, by name
    (None for one removed), and whether numpy ran. The interpreter starts with
    none of ``BLAS_THREADS`` beyond those in ``env``."""
    probe = (
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        f"{code}\n"
        "after = dict(os.environ)\n"
        "changed = {k: after.get(k) for k in before.keys() | after.keys()\n"
        "           if before.get(k) != after.get(k)}\n"
        "print(json.dumps([changed, any(m.startswith('numpy.') for m in sys.modules)]))"
    )
    return tuple(json.loads(run_fresh(probe, drop=BLAS_THREADS, **env).splitlines()[-1]))


def test_numpy_command_pins_blas_to_one_thread():
    assert environment_changes(cli_call(CS_SMALL)) == ({"OPENBLAS_NUM_THREADS": "1"}, True)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_pinned_command_runs_on_one_thread():
    code = cli_call(CS_SMALL) + "import os\nprint(len(os.listdir('/proc/self/task')))"
    assert run_fresh(code, drop=BLAS_THREADS).split()[-1] == "1"


@pytest.mark.parametrize("variable", BLAS_THREADS)
def test_caller_thread_setting_is_left_alone(variable):
    assert environment_changes(cli_call(CS_SMALL), **{variable: "2"}) == ({}, True)


def test_numpy_imported_first_is_left_alone():
    assert environment_changes("import numpy\n" + cli_call(CS_SMALL)) == ({}, True)


def test_cli_import_sets_nothing():
    assert environment_changes("import evbet.cli") == ({}, False)


def test_in_process_command_leaves_the_environment():
    from click.testing import CliRunner

    from evbet.cli import main

    assert "numpy" in sys.modules  # imported by the test session, as by any host program
    before = dict(os.environ)
    result = CliRunner().invoke(main, CS_SMALL)
    assert result.exit_code == 0, result.output
    assert dict(os.environ) == before


@pytest.mark.parametrize("dist", ["bernoulli:0.3", "uniform-grid:11"])
def test_pin_changes_no_output(tmp_path, dist):
    """A pinned run writes the bytes a run on two BLAS threads writes, on the
    binary kernel (``bernoulli``) and on the general kernel's matrix products."""
    outputs = {}
    for side, env in (("pool", {"OPENBLAS_NUM_THREADS": "2"}), ("pinned", {})):
        out = tmp_path / side
        out.mkdir()
        simulate = ["simulate", "--mu", "0.5", "--dist", dist, "--n", "5000", "--seed", "3",
                    "--out", str(out / "ledger.csv")]
        cs = ["cs", "--dist", dist, "--n", "300", "--seed", "3", "--running-intersect",
              "--out", str(out / "cs.csv"), "--membership", str(out / "membership.csv")]
        code = cli_call(simulate) + cli_call(cs) + "import os\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
        *summary, threads = run_fresh(code, drop=BLAS_THREADS, **env).splitlines()
        assert threads == env.get("OPENBLAS_NUM_THREADS", "1")
        outputs[side] = [summary] + [p.read_bytes() for p in sorted(out.iterdir())]
    assert len(outputs["pool"]) == 4
    assert outputs["pool"] == outputs["pinned"]


def test_trace_patch_targets_are_module_globals(monkeypatch):
    """Every name the benchmark's tracer patches is an entry of its owner's ``__dict__``.

    ``perfbench/tracing.install`` reads ``owner.__dict__[leaf]``, so a name
    that stopped being a module global (or class attribute) would break
    traced runs.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up there
    spec.loader.exec_module(tracing)
    for module, attr, *_ in tracing.PATCHES:
        owner = importlib.import_module(module)
        *parents, leaf = attr.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert leaf in owner.__dict__, f"{module}.{attr}"


def test_cli_import_loads_no_command_module():
    loaded = loaded_after("import evbet.cli")
    assert loaded == ["evbet", "evbet.cli", "evbet.errors"]
    for module in ("multiround", "iid_case", "confseq", "game"):
        assert f"evbet.{module}" not in loaded


@pytest.mark.parametrize("module", ["game", "confseq"])
def test_kernel_path_loads_no_reference_path(module):
    # The object path (betting) is the tests' reference; the kernels do not need it.
    assert "evbet.betting" not in loaded_after(f"import evbet.{module}")


GAME_STACK = ("kernels", "game", "betting", "confseq")
CERTIFICATION_STACK = ("evariables", "multiround", "iid_case")


@pytest.mark.parametrize("module", GAME_STACK + CERTIFICATION_STACK)
def test_game_and_certification_stacks_share_only_domain_and_errors(module):
    other = CERTIFICATION_STACK if module in GAME_STACK else GAME_STACK
    loaded = set(loaded_after(f"import evbet.{module}"))
    assert not loaded & {f"evbet.{name}" for name in other}


@pytest.mark.parametrize("module", sorted(TOP_LEVEL) + ["kernels"])
def test_library_module_import_loads_no_dataclasses(module):
    # Records subclass evbet._record.Record, which generates one __init__ per class.
    assert loaded_after(f"import evbet.{module}", "dataclasses") == []


def test_certification_stack_loads_no_inspect():
    statement = "import " + ", ".join(f"evbet.{name}" for name in CERTIFICATION_STACK)
    assert loaded_after(statement, "inspect") == []


def test_no_module_imports_dataclasses():
    package = Path(SRC) / "evbet"
    found = {
        p.name for p in package.rglob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Import) and "dataclasses" in {a.name for a in node.names})
    }
    assert not found, found


def test_cli_has_one_boundary_handler():
    """Only one ``except`` clause in the CLI turns boundary errors into exit 2."""
    tree = ast.parse((Path(SRC) / "evbet" / "cli.py").read_text())
    handlers = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(isinstance(n, ast.Name) and n.id == "_BOUNDARY_ERRORS" for n in ast.walk(node.type))
    ]
    assert len(handlers) == 1


def write_calls(node):
    """The ``.write(...)`` calls under an AST node."""
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "write"
    ]


def test_domain_has_the_one_table_writer():
    """The package's one ``.write`` call site is ``domain.write_table``, and no
    module builds a ``csv.writer`` or ``csv.DictWriter`` or imports ``csv`` to
    write: the library's table files (``eprocess_to_csv``, ``tabulated_to_csv``)
    go through the same writer as the CLI's tables."""
    package = Path(SRC) / "evbet"
    found = {str(p.relative_to(package)): ast.parse(p.read_text()) for p in package.rglob("*.py")}
    writer = [n for n in found["domain.py"].body
              if isinstance(n, ast.FunctionDef) and n.name == "write_table"]
    sites = {name: len(write_calls(tree)) for name, tree in found.items() if write_calls(tree)}
    assert sites == {"domain.py": len(write_calls(writer[0]))}
    writers = {"writer", "DictWriter"}
    for name, tree in found.items():
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute) and node.attr in writers
                        and isinstance(node.value, ast.Name) and node.value.id == "csv"), name
            assert not (isinstance(node, ast.ImportFrom) and node.module == "csv"), name
    for name in ("multiround.py", "evariables.py"):
        imports = [n for n in ast.walk(found[name]) if isinstance(n, ast.Import)]
        assert "csv" not in {alias.name for n in imports for alias in n.names}, name


def test_kernels_check_arguments_only_at_their_entry():
    """In ``kernels``, ``up_game_batch`` is the only caller of a ``domain.check_*``
    function: the routines it hands the checked arrays to check nothing."""
    tree = ast.parse((Path(SRC) / "evbet" / "kernels.py").read_text())
    checks = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "domain"
        for alias in node.names
        if alias.name.startswith("check_")
    }
    assert checks
    callers = {
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id in checks)
            or (isinstance(node.func, ast.Attribute) and node.func.attr.startswith("check_")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "domain")
        )
    }
    assert callers == {"up_game_batch"}


def names_in(tree):
    """The identifiers a module's code uses: names, attributes and imported names."""
    return {
        name
        for node in ast.walk(tree)
        for name in (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
    }


def test_one_near_mu_rule():
    """Every validity verdict takes its two-point laws from ``domain``.

    ``MU_SNAP_TOL`` is named only in ``evariables``, whose certificate slope
    step divides by ``p - mu``. ``multiround`` defines no weight or mass
    helper of its own and takes no mass as 1 minus another.
    """
    package = Path(SRC) / "evbet"
    trees = {p.name: ast.parse(p.read_text()) for p in package.glob("*.py")}
    assert [name for name, tree in sorted(trees.items()) if "MU_SNAP_TOL" in names_in(tree)] == [
        "evariables.py"
    ]
    multiround = trees["multiround.py"]
    helpers = [
        node.name for node in multiround.body
        if isinstance(node, ast.FunctionDef) and ("weight" in node.name or "mass" in node.name)
    ]
    assert helpers == []
    one_less = [
        node.lineno for node in ast.walk(multiround)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.Constant) and node.left.value == 1
    ]
    assert one_less == []

def test_package_has_no_subpackage():
    package = Path(SRC) / "evbet"
    assert not [p for p in package.iterdir() if p.is_dir() and p.name != "__pycache__"]


def csv_readers(path):
    """The places in a module that build a ``csv.reader`` or ``csv.DictReader``."""
    readers = {"reader", "DictReader"}
    return [
        node for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in readers
            and isinstance(node.value, ast.Name) and node.value.id == "csv")
        or (isinstance(node, ast.ImportFrom) and node.module == "csv"
            and readers & {alias.name for alias in node.names})
    ]


def test_only_domain_reads_table_files():
    package = Path(SRC) / "evbet"
    found = {str(p.relative_to(package)): len(csv_readers(p)) for p in package.rglob("*.py")}
    assert found.pop("domain.py") == 1
    assert found and not any(found.values()), found


def test_package_import_loads_nothing_else():
    assert loaded_after("import evbet") == ["evbet"]


def test_no_environment_variable_selects_the_kernel():
    code = "import evbet.kernels as k; print(k.BACKEND, k.n_threads())"
    assert run_fresh(code, EVBET_BACKEND="cython", EVBET_THREADS="4").split() == ["python", "1"]


@pytest.mark.parametrize("module", sorted(TOP_LEVEL))
def test_top_level_names_are_the_module_objects(module):
    mod = importlib.import_module(f"evbet.{module}")
    for name in TOP_LEVEL[module]:
        assert getattr(evbet, name) is getattr(mod, name)
        assert name in evbet.__all__


def test_all_lists_exactly_the_top_level_names():
    assert sorted(evbet.__all__) == sorted(n for names in TOP_LEVEL.values() for n in names)
    assert evbet.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'play_round'"):
        evbet.play_round


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: evbet.CoinBetEVariable(0.5, 2.5), "OutOfRange"),
        (lambda: evbet.MultiRoundCoinBet(0.5, ({(): 3.0},)), "OutOfRange"),
        (lambda: evbet.enumerate_masks(6), "DepthTooLarge"),
    ],
)
def test_validation_errors_are_value_errors(call, error):
    """A caller that catches ValueError catches every bad-argument error of the library."""
    try:
        call()
    except ValueError as exc:
        assert type(exc) is getattr(errors, error)
    else:
        pytest.fail("the call raised nothing")
