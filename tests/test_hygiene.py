"""Source hygiene: no module of the library imports a name it never uses,
nor a single-underscore name from another module of the library (a helper
two modules share is public in one of them), no private function, method or
class of the library goes unreferenced, no
module probes an object with hasattr or getattr (a context answers the ring
protocol of exactalg/ring.py instead), binary powering is written once,
in exactalg.power, no module of the library imports modalg.pv (the
package loads pv lazily, which pays only while pv is a leaf), only pv's
entry points verify, hopf_algebra and check_mu_bijectivity import
modalg.hopf (so pv.compare never compiles it), and outside
exactalg no function tests an object against a ring context type or Frac
except at the listed sites (a context answers for its own elements,
through the ring protocol and its hom).

Package __init__.py files are exempt from the import check, since their
imports are re-exports.  Names are read with ast only; a name counts as used
when it appears anywhere in the module, including inside string
annotations.  A private (single-underscore) function or class counts as
referenced when its name appears as a name, an attribute or a string
anywhere in the library outside its own definition, and a public method of
a library class when its name appears as an attribute or a string anywhere
in the library, the tests or the benchmark outside its own definition (a
bare name, such as a parameter named like the method, does not reach it).
Neither scan tells a method from a data attribute of the same name."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "modalg"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                inner = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(inner) if isinstance(m, ast.Name)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((name, line) for name, line in _imported(tree).items() if name not in used)


def test_scanner_finds_unused_and_keeps_used_names():
    source = (
        "from typing import Iterable, Sequence\n"
        "import os.path\n"
        "from .poly import MPoly, poly_gcd\n"
        "def f(xs: 'Sequence[MPoly]') -> int:\n"
        "    return len(os.path.sep) + len(xs)\n"
    )
    assert unused_imports(source) == [("Iterable", 1), ("poly_gcd", 3)]


def test_library_modules_import_only_names_they_use():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    bad = [f"{p.relative_to(SRC)}:{line} {name}"
           for p in modules for name, line in unused_imports(p.read_text())]
    assert not bad, "unused imports: " + ", ".join(bad)


def private_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of every single-underscore name imported from a module
    of the library: a relative import or one from modalg."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "modalg"):
            out += [(alias.name, node.lineno) for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")]
    return sorted(out)


def test_private_import_scanner():
    source = (
        "from . import terms as _terms\n"
        "from .lieritt import (\n    DiffPoly,\n    _splits,\n)\n"
        "from modalg.hull import _hom_coordinates\n"
        "from operator import add as _add\n"
        "from .ring import __all__\n"
    )
    assert private_imports(source) == [("_hom_coordinates", 6), ("_splits", 2)]


def test_library_modules_import_no_private_names():
    bad = [f"{p.relative_to(SRC)}:{line} {name}"
           for p in sorted(SRC.rglob("*.py")) for name, line in private_imports(p.read_text())]
    assert not bad, "private names imported from another module: " + ", ".join(bad)


def _member_references(tree: ast.AST) -> Counter:
    """The attribute and string uses of each name: the ways to reach a
    method."""
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def _references(tree: ast.AST) -> Counter:
    return _member_references(tree) + Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """module:name of every single-underscore def or class whose name is
    referenced nowhere in sources except inside the definitions of that
    name."""
    total = Counter()
    inside = Counter()
    defs = []
    for module, source in sources.items():
        tree = ast.parse(source)
        total += _references(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defs.append((module, node.name))
                inside[node.name] += _references(node)[node.name]
    return sorted(f"{m}:{name}" for m, name in defs if total[name] == inside[name])


def test_reference_scanner():
    sources = {
        "a.py": (
            "def _dead(x):\n    return _dead(x - 1) if x else 0\n"
            "def _used():\n    return 1\n"
            "class C:\n    def _method(self):\n        return 2\n"
            "    def _named(self):\n        return 3\n"
            "    def __repr__(self):\n        return 'C'\n"
            "class _Dead:\n    def make(self) -> '_Dead':\n        return _Dead()\n"
            "class _Used:\n    pass\n"
        ),
        "b.py": ("from a import _used, C, _Used\n"
                 "v = _used() + C()._method() + getattr(C(), '_named')() + len([_Used()])\n"),
    }
    assert unreferenced_private_functions(sources) == ["a.py:_Dead", "a.py:_dead"]


def test_library_private_functions_are_referenced():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    dead = unreferenced_private_functions(sources)
    assert not dead, "unreferenced private functions or classes: " + ", ".join(dead)


def unreferenced_public_methods(library: dict[str, str], others: dict[str, str]) -> list[str]:
    """module:Class.name of every public method of a class in library whose
    name is used as an attribute or a string nowhere in library or others
    except inside the definitions of that name."""
    total = Counter()
    inside = Counter()
    defs = []
    for module, source in {**library, **others}.items():
        tree = ast.parse(source)
        total += _member_references(tree)
        if module not in library:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    defs.append((module, cls.name, node.name))
                    inside[node.name] += _member_references(node)[node.name]
    return sorted(f"{m}:{c}.{name}" for m, c, name in defs if total[name] == inside[name])


def test_public_method_scanner():
    library = {
        "lib.py": (
            "class C:\n"
            "    def used(self):\n        return self.helper()\n"
            "    def helper(self):\n        return 1\n"
            "    def dead(self, n):\n        return self.dead(n - 1) if n else 0\n"
            "    @property\n    def shown(self):\n        return 2\n"
            "    def named(self):\n        return 3\n"
            "    def __add__(self, other):\n        return self\n"
            "    def _private(self):\n        return 4\n"
            "class D:\n    def dead_too(self):\n        return 5\n"
            "    def shadowed(self):\n        return 6\n"
            "def scale(shadowed, by):\n    dead_too = shadowed * by\n    return dead_too\n"
        ),
    }
    others = {"test_lib.py": ("from lib import C\n"
                              "v = C().used() + C().shown + getattr(C(), 'named')()\n")}
    assert unreferenced_public_methods(library, others) == [
        "lib.py:C.dead", "lib.py:D.dead_too", "lib.py:D.shadowed"]


def test_library_public_methods_are_referenced():
    def read(root):
        return {str(p.relative_to(ROOT)): p.read_text() for p in sorted(root.rglob("*.py"))}

    others = {**read(ROOT / "tests"), **read(ROOT / "bench")}
    dead = unreferenced_public_methods(read(SRC), others)
    assert not dead, "unreferenced public methods: " + ", ".join(dead)


def attribute_probes(source: str) -> list[tuple[str, int]]:
    """(name, line) of every call of hasattr or getattr in the source."""
    return sorted(
        (n.func.id, n.lineno) for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id in ("hasattr", "getattr")
    )


def test_probe_scanner():
    source = (
        "def f(ring, x):\n"
        "    if hasattr(ring, 'const'):\n"
        "        return ring.const(x)\n"
        "    probe = getattr(ring, 'order', 0)\n"
        "    return ring.hasattr + probe  # hasattr(ring) in a comment\n"
    )
    assert attribute_probes(source) == [("getattr", 4), ("hasattr", 2)]


def test_library_has_no_attribute_probes():
    probes = [f"{p.relative_to(SRC)}:{line} {name}"
              for p in sorted(SRC.rglob("*.py")) for name, line in attribute_probes(p.read_text())]
    assert not probes, "attribute probes: " + ", ".join(probes)


def binary_power_loops(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every while loop whose body shifts a
    name right in place (the n >>= 1 of binary powering)."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.While) and any(
                    isinstance(n, ast.AugAssign) and isinstance(n.op, ast.RShift)
                    and isinstance(n.target, ast.Name) for n in ast.walk(child)):
                out.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return sorted(out)


def test_binary_power_scanner():
    source = (
        "class P:\n"
        "    def __pow__(self, n):\n"
        "        r, b = 1, self\n"
        "        while n:\n"
        "            if n & 1:\n"
        "                r = r * b\n"
        "            b = b * b\n"
        "            n >>= 1\n"
        "        return r\n"
        "def bits(n):\n"
        "    n >>= 1\n"
        "    while n:\n"
        "        n -= 1\n"
        "    return n >> 1\n"
    )
    assert binary_power_loops(source) == [("__pow__", 4)]


def test_library_powers_only_through_the_shared_helper():
    loops = [f"{p.relative_to(SRC)}:{func}"
             for p in sorted(SRC.rglob("*.py")) for func, _ in binary_power_loops(p.read_text())]
    assert loops == ["exactalg/ring.py:power"], "binary-power loops outside exactalg.power: " + ", ".join(loops)


def imports_of(source: str, package: str, target: str) -> list[int]:
    """Lines of every import, at any depth of a module of package, that
    binds target or a name inside it: ``import target``, ``from target
    import x``, ``from parent import leaf`` and their relative forms."""
    parts = package.split(".")
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = parts[:len(parts) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == target or n.startswith(target + ".") for n in names):
            out.append(node.lineno)
    return sorted(out)


def test_import_scanner():
    source = (
        "from . import hull, pv\n"
        "from .pv import PVData\n"
        "from .. import pv as other\n"
        "import modalg.pv\n"
        "from modalg import umemura\n"
        "from .pvx import y\n"
        "def f():\n"
        "    from modalg.pv import compare\n"
        "    return compare\n"
    )
    assert imports_of(source, "modalg", "modalg.pv") == [1, 2, 4, 8]
    assert imports_of(source, "modalg.exactalg", "modalg.pv") == [3, 4, 8]


def enclosing_functions(source: str, lines: list[int]) -> list[str]:
    """The name of the innermost function around each line ("<module>"
    outside any function)."""
    funcs = [n for n in ast.walk(ast.parse(source))
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    out = []
    for line in lines:
        around = [f for f in funcs if f.lineno <= line <= f.end_lineno]
        out.append(max(around, key=lambda f: f.lineno).name if around else "<module>")
    return out


def test_enclosing_function_scanner():
    source = (
        "import os\n"
        "def f():\n"
        "    from . import hopf\n"
        "    def g():\n"
        "        from . import hopf\n"
        "    return g\n"
    )
    assert enclosing_functions(source, [1, 3, 5]) == ["<module>", "f", "g"]


def test_no_library_module_imports_pv():
    found, hopf_sites = [], []
    for p in sorted(SRC.rglob("*.py")):
        rel = p.relative_to(SRC.parent)
        package = ".".join(rel.parent.parts)
        source = p.read_text()
        found += [f"{p.relative_to(SRC)}:{line}" for line in imports_of(source, package, "modalg.pv")]
        hopf_sites += [f"{p.relative_to(SRC)}:{func}" for func in
                       enclosing_functions(source, imports_of(source, package, "modalg.hopf"))]
    assert not found, "modules importing modalg.pv: " + ", ".join(found)
    assert sorted(hopf_sites) == ["pv.py:check_mu_bijectivity", "pv.py:hopf_algebra",
                                  "pv.py:verify"], "imports of modalg.hopf: " + ", ".join(hopf_sites)


RING_TYPES = frozenset({"PolyRing", "FracField", "AlgebraicField", "ProductField", "Frac"})

# The functions outside exactalg that may still test an object against a
# ring context type or Frac, each for its reason; anything else asks the
# context (ring protocol, hom, partners) instead.
RING_TYPE_SITES = {
    # input validation: an ActionSpec is declared only over these contexts
    "actions.py:ActionSpec._check_shape",
    # the rational function field variables sit in L or in L's base
    "hull.py:_field_variables",
    # an algebraic generator's image is solved from its minimal polynomial
    "hull.py:variable_basis_derivation",
    # the denominators of relation coefficients, read from the Frac form
    "hull.py:cleared",
    # the scalar content of a coefficient's canonical form
    "umemura.py:_unit_scalar",
}


def ring_type_tests(source: str) -> list[str]:
    """The qualified name of the enclosing function of every isinstance call
    whose class argument names one of RING_TYPES ("<module>" outside any
    function), once per call."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "isinstance" and len(child.args) == 2):
                named = {n.id for n in ast.walk(child.args[1]) if isinstance(n, ast.Name)}
                named |= {n.attr for n in ast.walk(child.args[1]) if isinstance(n, ast.Attribute)}
                if named & RING_TYPES:
                    out.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(source), ())
    return sorted(out)


def test_ring_type_scanner():
    source = (
        "from .exactalg import Frac, PolyRing\n"
        "from . import exactalg\n"
        "class A:\n"
        "    def shape(self, ring):\n"
        "        if isinstance(ring, (exactalg.FracField, PolyRing)):\n"
        "            return isinstance(ring.one(), Frac)\n"
        "        return isinstance(ring, tuple)\n"
        "def lift(c):\n"
        "    def inner(x):\n"
        "        return isinstance(x, exactalg.AlgebraicField)\n"
        "    return inner(c) or isinstance(c, dict)\n"
        "SEEN = isinstance(None, ProductField)\n"
    )
    assert ring_type_tests(source) == ["<module>", "A.shape", "A.shape", "lift.inner"]


def test_ring_types_are_tested_only_at_the_listed_sites():
    found = {f"{p.relative_to(SRC)}:{site}"
             for p in sorted(SRC.rglob("*.py")) if "exactalg" not in p.relative_to(SRC).parts
             for site in ring_type_tests(p.read_text())}
    assert found == RING_TYPE_SITES, (
        f"unlisted: {sorted(found - RING_TYPE_SITES)}; no longer testing: "
        f"{sorted(RING_TYPE_SITES - found)}")
