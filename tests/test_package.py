"""The package surface: every exported name resolves, and importing the
package loads no numpy (the CLI configures numpy's BLAS before it loads)."""

import subprocess
import sys

import ffnewman


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
