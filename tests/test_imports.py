"""The exact side starts without the oracle: numpy loads only where something is measured."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hadene
from hadene import checks, continuation
from hadene.continuation import PolylogElement
from hadene.documents import divisor_to_doc, function_spec_to_doc, series_to_doc
from hadene.monodromy import Divisor, polylog_function_spec
from hadene.series import polylog_series

ROOT = Path(__file__).resolve().parent.parent
ORACLE_MODULES = ("numpy", "hadene.continuation")
# the fresh interpreters also watch the comparison of the engines, which only verify needs
WATCHED_MODULES = (*ORACLE_MODULES, "hadene.checks")

# the oracle names `hadene` has exported since it was first published
ORACLE_NAMES = (
    "AnalyticElement", "Arc", "ContourSpec", "Line", "LogBranchElement", "PolylogElement",
    "RationalElement", "SeriesElement", "SumElement", "build_traintrack", "continue_along",
    "ene_pincherle_eval", "monodromy_numeric", "pincherle_eval",
)

# every name `hadene` has exported since it was first published, by the module
# that defines it now: the comparison of the engines moved from the oracle to checks
PUBLISHED_NAMES = {**dict.fromkeys(ORACLE_NAMES, continuation),
                   "OracleReport": checks, "crosscheck": checks}

# the hadene modules each module may import at its top level; an import inside a
# function, or under `if TYPE_CHECKING:`, does not run when the module loads
IMPORT_LAYERS = {
    "coeffs": set(),
    "series": {"coeffs"},
    "logpoly": {"coeffs"},
    "monodromy": {"coeffs", "logpoly", "series"},
    "continuation": set(),
    "checks": {"logpoly", "monodromy"},
    "documents": {"coeffs", "logpoly", "monodromy", "series"},
    "cli": {"coeffs", "documents", "monodromy", "series"},
    "__init__": {"coeffs", "logpoly", "monodromy", "series"},
}

# argv as JSON in sys.argv[1] (null: only `import hadene`); prints the exit code
# and which watched modules the interpreter holds afterwards
_CHILD = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    import hadene
else:
    from hadene import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
print(json.dumps({"code": code, "loaded": [m for m in %r if m in sys.modules]}))
""" % (WATCHED_MODULES,)


def _python(code: str, *args: str):
    """The JSON that `code`, run in a fresh interpreter with args, prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _fresh_interpreter(argv):
    return _python(_CHILD, json.dumps(argv))


@pytest.fixture
def docs(tmp_path):
    def write(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return {
        "series": write("series", series_to_doc(polylog_series(1, 6))),
        "li1": write("li1", function_spec_to_doc(polylog_function_spec(1))),
        "li1_element": write("li1_element", function_spec_to_doc(polylog_function_spec(1),
                                                                  element=PolylogElement(1))),
        "divisor": write("divisor", divisor_to_doc(Divisor.of({2: 1, 3: -1}))),
    }


EXACT_COMMANDS = {
    "polylog": ["polylog", "--k", "3"],
    "monodromy": ["monodromy", "--product", "ene", "-f", "{li1}", "-g", "{li1}"],
    "series": ["series", "--op", "hadamard", "-f", "{series}", "-g", "{series}"],
    "divisor": ["divisor", "-f", "{divisor}", "-g", "{divisor}"],
    # monodromy never reads the oracle element a function document carries
    "monodromy-element": ["monodromy", "-f", "{li1_element}", "-g", "{li1_element}"],
}


def test_import_hadene_loads_neither_numpy_nor_the_oracle():
    # nor checks: crosscheck and OracleReport are served on first use
    assert _fresh_interpreter(None) == {"code": None, "loaded": []}


@pytest.mark.parametrize("argv", EXACT_COMMANDS.values(), ids=list(EXACT_COMMANDS))
def test_exact_commands_load_neither_numpy_nor_the_oracle(docs, argv):
    # nor checks, which cli imports inside verify
    assert _fresh_interpreter([arg.format(**docs) for arg in argv]) == {"code": 0, "loaded": []}


def test_verify_loads_numpy_and_the_oracle(docs):
    argv = ["verify", "-f", docs["li1_element"], "-g", docs["li1_element"], "--samples", "0.9"]
    assert _fresh_interpreter(argv) == {"code": 0, "loaded": list(WATCHED_MODULES)}


@pytest.mark.parametrize("name", sorted(PUBLISHED_NAMES))
def test_lazy_oracle_names_are_the_oracle_objects(name):
    assert getattr(hadene, name) is getattr(PUBLISHED_NAMES[name], name)
    assert name in dir(hadene)


def test_the_comparison_names_are_the_checks_objects_and_load_no_oracle():
    assert hadene.crosscheck is checks.crosscheck
    assert hadene.OracleReport is checks.OracleReport
    child = ("import json, sys, hadene; hadene.crosscheck, hadene.OracleReport; "
             "print(json.dumps([m for m in %r if m in sys.modules]))" % (ORACLE_MODULES,))
    assert _python(child) == []


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hadene.no_such_name
    assert not hasattr(hadene, "QuadratureNotConverged")


def _is_type_checking(node) -> bool:
    return isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"


def _imports(module: str) -> list[tuple[str | None, str]]:
    """(enclosing function or None, imported module) for each import in hadene/<module>.py.

    An import under `if TYPE_CHECKING:` is reported as inside "TYPE_CHECKING".
    """
    found = []

    def visit(node, function):
        if _is_type_checking(node):
            function = "TYPE_CHECKING"
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((function, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                package = "hadene" if child.level else ""
                if child.module:
                    found.append((function, ".".join(filter(None, [package, child.module]))))
                else:
                    found.extend((function, f"{package}.{alias.name}") for alias in child.names)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse((ROOT / "src" / "hadene" / f"{module}.py").read_text()), None)
    return found


@pytest.mark.parametrize("module", ["coeffs", "series", "logpoly", "monodromy"])
def test_exact_modules_import_neither_the_oracle_nor_numpy(module):
    # the north-star split: the symbolic side borrows nothing from the oracle
    names = [name for _, name in _imports(module)]
    assert names and not [name for name in names
                          if name == "hadene.continuation" or name.split(".")[0] == "numpy"]


def test_the_oracle_imports_no_hadene_module():
    # the measurement consults no symbolic result: the comparison lives in checks
    assert [name for _, name in _imports("continuation") if name.split(".")[0] == "hadene"] == []


def test_checks_imports_the_oracle_only_inside_functions():
    # so `import hadene`, which loads checks, loads no numpy
    scopes = [function for function, name in _imports("checks") if name == "hadene.continuation"]
    assert "crosscheck" in scopes and None not in scopes


def test_each_module_imports_only_its_layers_at_top_level():
    # the exact modules import exact modules, the oracle none; the modules that
    # read both sides reach the oracle only inside functions
    modules = sorted(path.stem for path in (ROOT / "src" / "hadene").glob("*.py"))
    assert modules == sorted(IMPORT_LAYERS)
    for module in modules:
        top = {name.split(".")[1] for function, name in _imports(module)
               if function is None and name.split(".")[0] == "hadene" and "." in name}
        assert top <= IMPORT_LAYERS[module], (module, top - IMPORT_LAYERS[module])


def test_monodromy_leaves_every_log_z_over_x_rewrite_to_logpoly():
    # logpoly._z_over alone expands log(z/x) = log z - log x binomially, so a
    # branch term added there reaches every pair term; monodromy must not
    # expand a power of log(z/u) itself
    tree = ast.parse((ROOT / "src" / "hadene" / "monodromy.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not (imported | referenced) & {"comb", "_signed_binomials", "_z_over"}


def test_monodromy_holds_one_pair_formula():
    # the ene pair term is -theta of the Hadamard one, so only _hadamard_pair
    # integrates or takes residues: a term added there reaches both products
    tree = ast.parse((ROOT / "src" / "hadene" / "monodromy.py").read_text())
    primitives = {"_add_integral", "_add_residue"}
    callers = {}
    for function in tree.body:
        if isinstance(function, ast.FunctionDef):
            called = primitives & {node.func.id for node in ast.walk(function)
                                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            if called:
                callers[function.name] = called
    assert callers == {"_hadamard_pair": primitives}


def test_each_product_has_one_driver():
    # one driver with no flag: a change to the sum over factorizations (ROADMAP item 1's
    # log-branch shift among them) reaches both products and the ladder at once
    tree = ast.parse((ROOT / "src" / "hadene" / "monodromy.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    driver = functions["_product_monodromy"].args
    assert [arg.arg for arg in driver.args] == ["finish", "f", "g", "gamma"]
    assert not (driver.posonlyargs or driver.kwonlyargs or driver.vararg or driver.kwarg or driver.defaults)
    callers = {name for name, function in functions.items()
               if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "_product_monodromy" for node in ast.walk(function))}
    assert callers == {"hadamard_monodromy_general", "ene_monodromy_general", "polylog_monodromy"}


def test_series_uses_no_private_fraction_api():
    # pyproject declares Python >= 3.10, and Fraction's private API changed in 3.12:
    # the `_normalize=` keyword went, `_from_coprime_ints` came.  The series kernels
    # reach Fraction through its public constructor, numerator and denominator only.
    tree = ast.parse((ROOT / "src" / "hadene" / "series.py").read_text())
    private = {"_normalize", "_from_coprime_ints", "_numerator", "_denominator"}
    private |= {name for name in vars(Fraction) if name.startswith("_") and not name.startswith("__")}
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call) for kw in node.keywords}
    assert not used & private
