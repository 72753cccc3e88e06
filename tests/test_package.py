"""The package surface: every exported name resolves, importing the
package loads no numpy (the CLI configures numpy's BLAS before it loads),
every module ships a route the CLI runs, and the tests' references in
tests/oracles.py import none of the routes they check."""

import ast
import pathlib
import subprocess
import sys

import ffnewman

# the references that live in tests/oracles.py, not in the package
MOVED = ["chi", "dirichlet_coefficients", "enumerate_monic", "legendre_int", "xi_eval"]


def _fresh(code):
    # in a fresh interpreter: this one has long since imported every submodule
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_export_resolves():
    missing = [name for name in ffnewman.__all__ if not hasattr(ffnewman, name)]
    assert missing == []
    assert len(set(ffnewman.__all__)) == len(ffnewman.__all__)


def test_import_loads_no_numpy():
    assert _fresh("import sys, ffnewman; print('numpy' in sys.modules)") == "False\n"


def test_star_import_binds_every_export():
    code = (
        "from ffnewman import *\n"
        "import ffnewman\n"
        "print([name for name in ffnewman.__all__ if name not in globals()])\n"
    )
    assert _fresh(code) == "[]\n"


def test_dir_lists_every_export():
    code = "import ffnewman; print(sorted(set(ffnewman.__all__) - set(dir(ffnewman))))"
    assert _fresh(code) == "[]\n"


def test_cli_loads_every_module_of_the_package():
    # so no module ships that only the tests run
    package = pathlib.Path(ffnewman.__file__).parent
    modules = ["ffnewman"] + ["ffnewman." + f.stem for f in package.glob("[!_]*.py")]
    code = (
        "import sys, ffnewman.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ffnewman'))\n"
    )
    loaded = _fresh(code)
    assert loaded == "%s\n" % sorted(modules)
    assert "ffnewman.quad_character" not in loaded


def test_test_only_references_are_not_exported():
    assert not set(MOVED) & set(ffnewman.__all__)
    assert not [name for name in MOVED if hasattr(ffnewman, name)]


def _ffnewman_names(root):
    """The names that tests/oracles.py imports from ffnewman and that its
    function root reads, itself or through the module's other functions."""
    tree = ast.parse(pathlib.Path(__file__).with_name("oracles.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ffnewman"
        for alias in node.names
    }
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo, names = set(), [root], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        nodes = list(ast.walk(defs[name]))
        local = {a.arg for a in defs[name].args.args}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read -= local
        names |= read & imported
        todo += read & defs.keys()
    return names


def test_oracles_import_no_route_they_check():
    # the ladder builds polynomials and validates the modulus, nothing more;
    # the enumeration oracle shares helpers with the explicit formula but
    # none of its tables, character sums or Newton step
    assert _ffnewman_names("chi") == {"FpPolynomial", "check_odd_prime", "is_squarefree"}
    routes = {
        "_root_powers", "_field_tables", "_root_values", "_character_sums",
        "family_tables", "family_coefficients", "_newton_coefficients", "build_lfunction",
    }
    oracle = _ffnewman_names("dirichlet_coefficients")
    assert "_factorize_monic" in oracle and not oracle & routes
