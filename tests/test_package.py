import ast
import importlib
import importlib.util
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
               "bet_bounds", "sample_stream", "two_point_weight"],
    "evariables": ["CoinBetEVariable", "DominationCertificate", "HoeffdingEVariable",
                   "TabulatedEVariable", "beta_interval", "check_evariable",
                   "dominating_lambda", "eval_majorizer"],
    "betting": ["ConstantStrategy", "PortfolioPosterior", "UniversalPortfolioStrategy", "up_bet",
                "up_update"],
    "game": ["WealthLedger", "run_game", "run_games_batch", "score_bets"],
    "confseq": ["default_mu_grid", "run_cs_batch"],
    "multiround": ["EProcess", "MultiRoundCoinBet", "StoppingMask", "TreeHypothesis",
                   "audit_eprocess", "dominate_T2", "enumerate_masks", "tree_expectation"],
    "iid_case": ["XiStats", "check_iid_bruteforce", "check_iid_closed_form", "xi_stats"],
}


def run_fresh(code, **env):
    """What a fresh interpreter prints running ``code``, with ``env`` added to its environment."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def loaded_after(statement):
    """The evbet modules a fresh interpreter holds after running ``statement``."""
    listing = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'evbet'))"
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
        "from evbet.multiround import audit_eprocess, constant_eprocess\n"
        "audit_eprocess(constant_eprocess(0.5), 3)"
    )
    assert not numpy_ran_after(code)


@pytest.mark.parametrize("module", sorted(TOP_LEVEL) + ["kernels"])
def test_library_module_import_runs_no_numpy(module):
    # Every library module binds numpy through evbet._lazy.
    assert not numpy_ran_after(f"import evbet.{module}")


def test_first_array_call_runs_numpy():
    assert numpy_ran_after("import evbet.confseq\nevbet.confseq.default_mu_grid(9)")


def test_cs_runs_numpy():
    cs = ["cs", "--dist", "bernoulli:0.5", "--n", "5", "--grid", "9", "--strategy", "up:11"]
    assert numpy_ran_after(cli_call(cs))


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
        (lambda: evbet.two_point_weight(0.6, 0.9, 0.5), "MeanOutsideSpan"),
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
