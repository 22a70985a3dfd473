"""modalg: exact symbolic computation with module algebras.

Fields and rings with bialgebra actions (derivations, iterative derivations,
endomorphisms, monoid actions), universal expansion maps, Galois hulls,
Lie-Ritt groups of infinitesimal transformations, and Picard-Vessiot data,
all in exact arithmetic over QQ or GF(p).

Two submodules are compiled on first use.  pv (the Picard-Vessiot data and
the comparison) is loaded lazily: ``modalg.pv`` and ``from modalg import pv``
return a module whose source is compiled and executed on its first attribute
access.  A program that imports it but runs only the Umemura chain (hull,
lieritt, umemura) never pays for compiling it.  This is safe because pv is a
leaf of the package: no other module of modalg imports it.  hopf (the
Picard-Vessiot axioms and the Hopf algebra of constants) is imported only by
pv.verify, pv.hopf_algebra and pv.check_mu_bijectivity, on their first call,
so pv.compare never compiles it.  ``import modalg.pv``, ``from modalg.pv
import ...``, ``import modalg.hopf`` and ``from modalg import hopf`` work as
usual.

Three more pieces sit beside the chain and load only when asked for.
axioms (the module-algebra axiom checks, the factorization check of the
universal expansion, and products of fields with a permutation action) is a
leaf that no module of modalg imports: ``from modalg.axioms import ...``
loads it.  exactalg answers AlgebraicField and ProductField by importing
their modules on the first lookup (see its docstring).  Every other
submodule loads in full when it is imported.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def __getattr__(name):
    if name != "pv":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    spec = importlib.util.find_spec(f"{__name__}.pv")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()["pv"] = module
    return module
