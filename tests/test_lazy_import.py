"""The package loads modalg.pv lazily: importing it compiles nothing, a
Umemura chain never touches it, and its first attribute access compiles and
runs it.  pv in turn imports modalg.hopf, the Picard-Vessiot axioms and the
Hopf algebra of constants, only when verify, hopf_algebra or
check_mu_bijectivity is called, so pv.compare never compiles it.  Likewise
modalg.exactalg answers AlgebraicField and ProductField by loading algext.py
and product.py on the first lookup, and modalg.axioms is a leaf no module
imports, so a Umemura chain compiles none of the three; CHAIN_MODULES lists
exactly what it does compile.  Each case runs in a fresh interpreter whose
bytecode cache is an empty directory, so every module that is loaded is
compiled from source and an audit hook on the compile event sees it."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

RECORDER = """
import os
import sys
compiled = []
sys.addaudithook(lambda event, args: compiled.append(str(args[1]))
                 if event == "compile" else None)

def library_compiled():
    return sorted({os.path.relpath(name, SRC) for name in compiled
                   if name.startswith(SRC + os.sep)})

def pv_compiled():
    return any(name.endswith("pv.py") for name in compiled)

def hopf_compiled():
    return any(name.endswith("hopf.py") for name in compiled)
"""

# the additive chain theta(y) = y + w over QQ(y) through solve_points
ADDITIVE_CHAIN = """
from modalg import hull, umemura
from modalg.actions import ActionSpec
from modalg.exactalg import QQ, FracField
from modalg.series import TruncSeries

L = FracField(QQ, ["y"])
y = L.var("y")
img = TruncSeries(L, ("w",), 8, {(0,): y, (1,): L.one()})
action = ActionSpec(L, "iterder", n=1, theta_images={"y": img})
ext = hull.ExtensionDesc(L, [y], action, name="additive")
h = hull.hull_generators(ext, t_horizon=3, w_horizon=4)
report = umemura.solve_points(h, hull.find_relations(h, diff_order=4, degree=2))
"""

# the additive Picard-Vessiot example of tests/test_pv.py: R = QQ[y], X =
# [[1, y], [0, 1]] for theta(y) = y + w
ADDITIVE_PV = """
from modalg import hull, pv
from modalg.actions import ActionSpec
from modalg.exactalg import QQ, FracField, Matrix, PolyRing
from modalg.series import TruncSeries

L = FracField(QQ, ["y"])
img = TruncSeries(L, ("w",), 8, {(0,): L.var("y"), (1,): L.one()})
action = ActionSpec(L, "iterder", n=1, theta_images={"y": img})
R = PolyRing(QQ, ["y"])
X = Matrix(R, [[R.one(), R.var("y")], [R.zero(), R.one()]])
data = pv.PVData(L, action, R, X, {"y": ("X", 0, 1)}, name="additive")
ext = hull.ExtensionDesc(L, [L.var("y")], action, name="additive")
"""


def run_fresh(body: str, tmp_path: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp_path),
               PYTHONDONTWRITEBYTECODE="1")
    code = f"SRC = {str(SRC)!r}\n" + RECORDER + textwrap.dedent(body)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_chain_runs_without_compiling_pv(tmp_path):
    out = run_fresh("from modalg import pv\n" + ADDITIVE_CHAIN + textwrap.dedent("""
        print(report.classification["tag"], pv_compiled())
        print(callable(pv.compare), pv_compiled())
    """), tmp_path)
    assert out.split("\n")[:2] == ["Ga_hat False", "True True"]


# The modules of modalg that the additive Umemura chain through
# solve_points compiles, each for its stage; a module that a new eager import
# pulls in shows up here as a reviewed change.
CHAIN_MODULES = {
    # the package and exactalg's package, which load the rest lazily
    "modalg/__init__.py",
    "modalg/exactalg/__init__.py",
    # scalars, polynomials, fractions, the ring protocol and its hom
    "modalg/exactalg/fields.py",
    "modalg/exactalg/poly.py",
    "modalg/exactalg/frac.py",
    "modalg/exactalg/ring.py",
    "modalg/exactalg/terms.py",
    # elimination in find_relations and solve_zero_set
    "modalg/exactalg/linalg.py",
    # truncated series, the action and its expansion
    "modalg/series.py",
    "modalg/actions.py",
    "modalg/taylor.py",
    # the chain: hull, Lie-Ritt ideal and the Umemura functor
    "modalg/hull.py",
    "modalg/lieritt.py",
    "modalg/umemura.py",
}

FIELD_MODULES = {"AlgebraicField": "modalg/exactalg/algext.py",
                 "ProductField": "modalg/exactalg/product.py"}
OFF_CHAIN = {*FIELD_MODULES.values(), "modalg/axioms.py"}


def test_chain_compiles_only_the_listed_modules(tmp_path):
    out = run_fresh(ADDITIVE_CHAIN + textwrap.dedent("""
        print(report.classification["tag"])
        print(*library_compiled())
    """), tmp_path)
    tag, modules = out.split("\n")[:2]
    found = set(modules.split())
    assert tag == "Ga_hat"
    assert not found & OFF_CHAIN
    assert found == CHAIN_MODULES, (
        f"unlisted: {sorted(found - CHAIN_MODULES)}; no longer compiled: "
        f"{sorted(CHAIN_MODULES - found)}")


@pytest.mark.parametrize("name,module", FIELD_MODULES.items())
def test_from_import_loads_field_module(tmp_path, name, module):
    out = run_fresh(f"""
        import modalg.exactalg
        print({module!r} in library_compiled())
        from modalg.exactalg import {name}
        print({name}.__name__, modalg.exactalg.{name} is {name}, {module!r} in library_compiled())
    """, tmp_path)
    assert out == f"False\n{name} True True\n"


def test_star_import_loads_both_field_modules(tmp_path):
    out = run_fresh("""
        from modalg.exactalg import *
        print(AlgebraicField.__name__, ProductField.__name__, QQ.char)
        print(*library_compiled())
    """, tmp_path)
    names, modules = out.split("\n")[:2]
    assert names == "AlgebraicField ProductField 0"
    assert set(modules.split()) & OFF_CHAIN == set(FIELD_MODULES.values())


def test_import_statement_loads_pv(tmp_path):
    out = run_fresh("""
        import modalg.pv
        print(callable(modalg.pv.compare), pv_compiled())
    """, tmp_path)
    assert out == "True True\n"


def test_from_import_loads_pv(tmp_path):
    out = run_fresh("""
        from modalg.pv import PVData
        import modalg
        print(PVData.__name__, modalg.pv.PVData is PVData, pv_compiled())
    """, tmp_path)
    assert out == "PVData True True\n"


def test_compare_runs_without_compiling_hopf(tmp_path):
    out = run_fresh(ADDITIVE_PV + textwrap.dedent("""
        h = hull.hull_generators(ext, t_horizon=3, w_horizon=3)
        d = pv.compare(data, h, hull.find_relations(h, diff_order=3, degree=2), degree=3)
        print(d.ok, pv_compiled(), hopf_compiled(), "modalg.hopf" in sys.modules)
    """), tmp_path)
    assert out == "True True False False\n"


def test_verify_compiles_hopf_on_first_call(tmp_path):
    out = run_fresh(ADDITIVE_PV + textwrap.dedent("""
        print(hopf_compiled())
        print(pv.verify(data, 2).ok, hopf_compiled())
    """), tmp_path)
    assert out == "False\nTrue True\n"


def test_hopf_algebra_compiles_hopf_on_first_call(tmp_path):
    out = run_fresh(ADDITIVE_PV + textwrap.dedent("""
        print(hopf_compiled())
        presentation = pv.hopf_algebra(data, 2)
        hopf = sys.modules["modalg.hopf"]
        print(presentation.report.ok, type(presentation) is hopf.HopfPresentation, hopf_compiled())
        print(pv.check_mu_bijectivity(data, presentation, 2).ok)
    """), tmp_path)
    assert out == "False\nTrue True True\nTrue\n"


def test_import_statement_loads_hopf_without_pv(tmp_path):
    out = run_fresh("""
        import modalg.hopf
        print(callable(modalg.hopf.verify), hopf_compiled(), pv_compiled())
    """, tmp_path)
    assert out == "True True False\n"


def test_from_import_loads_hopf_without_pv(tmp_path):
    out = run_fresh("""
        from modalg import hopf
        import modalg
        print(modalg.hopf is hopf, callable(hopf.hopf_algebra), hopf_compiled(), pv_compiled())
    """, tmp_path)
    assert out == "True True True False\n"


def test_other_names_are_missing():
    import modalg
    import modalg.exactalg

    assert not hasattr(modalg, "nope")
    assert not hasattr(modalg.exactalg, "nope")
