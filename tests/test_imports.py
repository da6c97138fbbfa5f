"""Import rules: the library runs on the standard library, numpy and
scipy.special alone, and the benchmark's oracle stays independent of the
library it judges.  Both are checked by parsing the sources, so nothing is
imported.  Three more rules are checked by running the library in fresh
processes: scipy is not loaded until an incomplete-Gamma function of
`special` runs, since scipy.special alone doubles the resident memory of
`import entroscope.special`; sorting knot grids loads no numpy.ma; and
measures of builtins make no LAPACK call."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entroscope"
ORACLE = ROOT / "bench" / "oracle.py"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "entroscope"}


def _imported(path: Path) -> list[tuple[int, str]]:
    """(level, top-level name) of every import in the file; relative imports
    have level > 0 and name their package-local module, or "" for `from .`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [(0, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append((node.level, (node.module or "").split(".")[0]))
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_stdlib_numpy_scipy(path):
    foreign = {name for level, name in _imported(path) if level == 0 and name not in ALLOWED}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def _scipy_modules(path: Path) -> list[str]:
    """Dotted names of the scipy modules the file imports: `import scipy.x`
    and `from scipy.x import y` give scipy.x, `from scipy import y` gives
    scipy.y, and a bare `import scipy` gives scipy (which loads any
    subpackage on attribute access)."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "scipy":
                out += [f"scipy.{alias.name}" for alias in node.names]
            else:
                out.append(node.module)
    return [name for name in out if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_from_scipy_only_special(path):
    # any other scipy subpackage costs tens of MB of resident memory: in a
    # fresh CPython 3.11 process (numpy 2.4, scipy 1.17, Linux x86-64)
    # `import entroscope.special` with scipy.special loaded (as the
    # incomplete-Gamma functions load it) peaks at 53.7 MB, and at 79.2 MB
    # with scipy.integrate (+25.5 MB) or 76.2 MB with scipy.optimize
    # (+22.5 MB) imported as well
    other = [m for m in _scipy_modules(path) if m.split(".")[:2] != ["scipy", "special"]]
    assert not other, f"{path.name} imports {other}"


def test_oracle_imports_nothing_from_the_library():
    found = [
        (level, name)
        for level, name in _imported(ORACLE)
        if level > 0 or name == "entroscope"
    ]
    assert not found, f"oracle.py imports {found}"


def _package_imports(nodes) -> list[str]:
    """The package-local modules that the relative imports among nodes
    name: `from .errors import X` gives errors, `from . import special`
    gives special."""
    out = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            out += [node.module] if node.module else [alias.name for alias in node.names]
    return out


def test_core_imports_only_errors_at_module_level():
    # core is the bottom layer: transforms and special import from it, so a
    # module-level import back into the package would make a cycle; special
    # is imported only inside _builtin_gg, when a gg density is built
    tree = ast.parse((PACKAGE / "core.py").read_text())
    assert _package_imports(tree.body) == ["errors"]
    nested = {
        (fn.name, name)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for name in _package_imports(ast.walk(fn))
    }
    assert nested == {("_builtin_gg", "special")}


_LAZY_SCIPY = """
import math
import sys

from entroscope import measures, special, transforms
from entroscope.core import builtin

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

names = ("exp", "halfgauss", "gauss", "pareto", "powerlaw", "uniform", "gg")
values = [measures.shannon(builtin(name)) for name in names]
values += [measures.shannon(special.gg_density(p, lam)) for p, lam in ((2.0, 0.7), (3.0, 1.0), (1.5, 3.0))]
values.append(measures.renyi_power(special.mirror_gg(2.0, 1.5), 2.0))
values.append(measures.shannon(transforms.down(special.gg_density(2.0, 1.5), 3.0)))
values.append(measures.shannon(transforms.up(builtin("exp"), 3.0)))
assert len(values) == 13 and all(map(math.isfinite, values)), values
assert scipy_modules() == [], scipy_modules()
special.inc_gamma_upper(1.5, 2.0)
assert "scipy.special" in scipy_modules(), scipy_modules()
"""


def test_scipy_loads_only_with_the_incomplete_gamma_functions():
    # builtins, g members, mirror_gg and numeric down/up images, each built
    # and measured, load no scipy module; inc_gamma_upper loads scipy.special
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", _LAZY_SCIPY], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


_NO_MASKED_ARRAYS = """
import sys

from entroscope import core, special, transforms
from entroscope.core import builtin

image = transforms.up(builtin("pareto", {"eta": 3.0}), 3.0)
assert 0.0 < image.value(2.0) < 1.0
assert core.quantiles(builtin("exp"), [0.1, 0.9])[0] > 0.0
assert 0.0 < special.sin_gen(2.0, 1.5, 0.5) < 1.0
assert "numpy.ma" not in sys.modules
"""


def test_knot_grids_load_no_masked_arrays():
    # np.unique looks for masked arrays, which imports numpy.ma (~22 ms):
    # an up image, quantiles and a generalized sine sort their knots
    # without it
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


_NO_LAPACK = """
from entroscope import core, measures, special
from entroscope.core import builtin

names = ("exp", "halfgauss", "gauss", "pareto", "powerlaw", "uniform", "gg")
densities = [builtin(name) for name in names] + [special.gg_density(2.0, 0.7)]
for f in densities:
    measures.shannon(f)
    measures.renyi_power(f, 0.5)
assert core._gk_antiderivative.cache_info().currsize == 0
"""


def test_builtin_measures_make_no_lapack_call():
    # the Kronrod seed matrix is the one LAPACK solve; only the seeds of
    # cumulative coordinates read it, so measures of builtins never form it
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", _NO_LAPACK], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
