"""Picard-Vessiot data, formal automorphism groups, and the comparison with
the infinitesimal theory.

The input declares a fundamental matrix X over a principal ring R inside a
total quotient field L, with one bialgebra action governing everything
(PVData).  The formal points are the automorphisms sigma with sigma(X (x) 1)
= (X (x) 1)(1 (x) M) over nilpotent test algebras, solved with symbolic
parameters (galois_points); they form the formal group that compare matches
against the infinitesimal automorphism group of the hull.

The Picard-Vessiot axioms and the Hopf algebra of constants of the doubled
ring are checks of the input that compare never calls: they live in
modalg.hopf, which verify, hopf_algebra and check_mu_bijectivity here import
on their first call.
"""

from __future__ import annotations

import itertools

from .actions import ActionSpec, HomElement, Report, d_basis_entries, monomial_basis
from .exactalg import Echelon, Frac, FracField, GeneratorPowers, Matrix, MPoly, PolyRing, evaluate
from .hull import HullData
from .lieritt import NilAlgebra, absorb_residues, kernel_values
from .series import TruncSeries
from .taylor import ExpansionAlgebra
from .umemura import UmemuraReport, solve_points


class PVData:
    """A declared Picard-Vessiot extension at desk scale.

    L is the total quotient field with the action; R is the principal ring,
    presented as a polynomial context over the constants field (inverse
    pairs model the Laurent generators); X is the fundamental matrix with
    entries in R, and gen_in_X locates each R-generator inside X or its
    inverse so automorphisms can be read off matrix transformations.  Each
    R-generator is a generator of L or the partner of one.
    """

    def __init__(self, L: FracField, action: ActionSpec, R: PolyRing, X: Matrix,
                 gen_in_X: dict, name: str = ""):
        self.L = L
        self.action = action
        self.R = R
        self.X = X
        self.gen_in_X = dict(gen_in_X)
        self.name = name
        self.k = L.scalars
        if R.field is not L.scalars:
            raise ValueError("principal ring must be presented over the constants field")
        for v in R.vars:
            if v not in L.vars and R.partners.get(v) not in L.vars:
                raise ValueError(f"generator {v} has no location in L")
        # the inclusions R -> L and back, on the generators of L
        self._to_L = GeneratorPowers(L, {v: L.var(v) for v in R.vars if v in L.vars})
        self._to_R = GeneratorPowers(R, {v: R.var(v) for v in L.vars})
        # X is inverted over the field L; l_to_r raises when an entry of the
        # inverse is outside R
        self.Xinv = X.map(self.r_to_L, L).inverse().map(self.l_to_r, R)

    # R-polynomials viewed inside L
    def r_to_L(self, p: MPoly) -> Frac:
        return self.R.hom(p, self._to_L, self.L.const)

    def l_to_r(self, f: Frac) -> MPoly:
        """Rewrite an L-element as an R-polynomial; fails when the element
        does not lie in R."""
        try:
            return self.L.hom(f, self._to_R, self.R.scalar)
        except ZeroDivisionError:
            raise ValueError(f"{f} is not in the principal ring") from None


# ----------------------------------------------------- the Hopf side, on call


def verify(data: PVData, degree: int, horizon: int | None = None) -> Report:
    """The Picard-Vessiot axioms at the declared bounds: hopf.verify."""
    from . import hopf
    return hopf.verify(data, degree, horizon)


def hopf_algebra(data: PVData, degree: int, horizon: int | None = None) -> HopfPresentation:
    """The Hopf algebra of constants of the doubled ring: hopf.hopf_algebra."""
    from . import hopf
    return hopf.hopf_algebra(data, degree, horizon)


def check_mu_bijectivity(data: PVData, presentation: HopfPresentation, degree: int) -> Report:
    """R tensor the constants is the doubled ring: hopf.check_mu_bijectivity."""
    from . import hopf
    return hopf.check_mu_bijectivity(data, presentation, degree)


# ----------------------------------------------------------- galois points


class GaloisFamily:
    """Automorphisms sigma with sigma(X (x) 1) = (X (x) 1)(1 (x) M), solved
    over a nilpotent test algebra with symbolic parameters."""

    def __init__(self, data: PVData, algebra: NilAlgebra, params: list[str],
                 M: Matrix, images: dict, report: Report):
        self.data = data
        self.algebra = algebra
        self.params = params
        self.M = M
        self.images = images  # generator name -> element of R (x) A
        self.report = report

    def as_dict(self) -> dict:
        return {
            "parameters": list(self.params),
            "matrix": str(self.M),
            "images": {g: str(v) for g, v in self.images.items()},
            "checks": self.report.as_dict(),
        }


class _GaloisSystem:
    """Equation assembly for sigma(X (x) 1) = (X (x) 1)(1 (x) M).

    The operator side does not depend on the test algebra, so it is built
    once per solve, in R: the theta series of each R-generator and, for
    every operator of d_basis_entries, its image of each R-generator (for a
    monoid generator these images are the endomorphism itself).  What
    depends on the test algebra A but not on M is built once per test
    algebra, on the first evaluation over it, and kept on the system (which
    lives for one solve): X and X^-1 over R (x) A, the theta action over
    R (x) A, and every operator's images lifted there with their powers.
    An evaluation at M builds only the sigma-images and the equations."""

    def __init__(self, data: PVData, horizon: int):
        self.data = data
        self.horizon = horizon
        self.n = data.X.nrows
        act, R = data.action, data.R
        gens = {name: data.r_to_L(R.var(name)) for name in R.vars}
        self.theta = {}  # name -> {w-exponent: coefficient in R}
        if act.has_theta():
            for name, g in gens.items():
                series = act.theta_series(g, horizon)
                self.theta[name] = {e: data.l_to_r(c) for e, c in series.terms.items()}
        self.operators = []  # (kind, payload, {name: image of the generator in R})
        for kind, payload in d_basis_entries(act, horizon):
            if kind == "theta":
                moved = {name: self.theta[name].get(payload, R.zero()) for name in R.vars}
            else:
                moved = {name: data.l_to_r(act.apply_generator(payload, g))
                         for name, g in gens.items()}
            self.operators.append((kind, payload, moved))
        # the largest theta order: each sigma-image is expanded once, there
        self.top = max((sum(payload) for kind, payload, _ in self.operators if kind == "theta"),
                       default=None)
        self._lifted: dict = {}  # test algebra -> _over(A)

    def _over(self, A: NilAlgebra) -> tuple:
        """(R (x) A, X, X^-1, theta action, [(kind, payload, images, their
        powers)]) over R (x) A, built on the first call for A."""
        lifted = self._lifted.get(A)
        if lifted is not None:
            return lifted
        data, act = self.data, self.data.action
        RA = PolyRing(A, data.R.vars, data.R.inverse_pairs)
        XA, XinvA = (m.map(lambda p: _lift_poly(RA, p), RA) for m in (data.X, data.Xinv))
        theta_RA = None
        if self.top is not None:
            theta_RA = ActionSpec(RA, "iterder", n=act.n, wvars=act.wvars, theta_images={
                name: TruncSeries(RA, act.wvars, self.horizon,
                                  {e: _lift_poly(RA, c) for e, c in terms.items()})
                for name, terms in self.theta.items()})
        operators = []
        for kind, payload, moved in self.operators:
            moved = {name: _lift_poly(RA, p) for name, p in moved.items()}
            operators.append((kind, payload, moved, GeneratorPowers(RA, moved)))
        lifted = self._lifted[A] = (RA, XA, XinvA, theta_RA, operators)
        return lifted

    def _sigma_images(self, A: NilAlgebra, M: Matrix) -> tuple:
        RA, XA, XinvA, _, _ = self._over(A)
        XM = XA * M.map(RA.scalar, RA)
        MinvXinv = M.inverse().map(RA.scalar, RA) * XinvA
        images = {}
        for g, (which, i, j) in self.data.gen_in_X.items():
            images[g] = XM.entry(i, j) if which == "X" else MinvXinv.entry(i, j)
        return images, XM, MinvXinv

    def residues(self, A: NilAlgebra, M: Matrix) -> tuple[list, dict]:
        """All equation coefficients at M, as elements of A, and the
        sigma-images of the R-generators they were read from."""
        data = self.data
        RA, XA, XinvA, theta_RA, operators = self._over(A)
        images, XM, MinvXinv = self._sigma_images(A, M)
        sigma = GeneratorPowers(RA, images)
        eqs: list[MPoly] = []
        # matrix consistency: sigma applied to each entry equals the
        # transformed entry, for X and for its inverse
        for i in range(self.n):
            for j in range(self.n):
                eqs.append(RA.hom(XA.entry(i, j), sigma, RA.scalar) - XM.entry(i, j))
                eqs.append(RA.hom(XinvA.entry(i, j), sigma, RA.scalar) - MinvXinv.entry(i, j))
        # ring relations: inverse pairs multiply to one
        for i, j in data.R.inverse_pairs:
            vi, vj = data.R.vars[i], data.R.vars[j]
            eqs.append(images[vi] * images[vj] - RA.one())
        # equivariance: operators commute with sigma on the generators; each
        # image is expanded once, at the largest theta order, and every
        # payload reads its coefficient there (a series agrees with its
        # truncations in every lower degree)
        sigma_theta = {}
        if theta_RA is not None:
            sigma_theta = {name: theta_RA.theta_series(images[name], self.top)
                           for name in data.R.vars}
        for kind, payload, moved, operator in operators:
            for name in data.R.vars:
                if kind == "theta":
                    lhs = sigma_theta[name].coeff(payload)
                else:
                    lhs = RA.hom(images[name], operator, RA.scalar)
                eqs.append(lhs - RA.hom(moved[name], sigma, RA.scalar))
        # label each coefficient by its equation and monomial, so that the
        # coefficients of different equations never merge
        labelled = [((q, exp), e.terms[exp]) for q, e in enumerate(eqs) for exp in sorted(e.terms)]
        return labelled, images


def _lift_poly(RA: PolyRing, p: MPoly) -> MPoly:
    """A polynomial over the constants field as an element of R (x) A."""
    A = RA.field
    return RA.poly({exp: A.const(c) for exp, c in p.terms.items()})


def galois_points(data: PVData, horizon: int = 3, param_order: int = 3) -> GaloisFamily:
    """Solve for the automorphism matrices over the nilpotent test algebra
    NilAlgebra(data.L, params, param_order) (params empty, and M the
    identity, when the identity is not a point).

    Only formal points are solved, M congruent to the identity modulo the
    nilradical (points over a plain algebra come from the Hopf
    presentation); the system is linearized there and solved exactly, with
    layered corrections absorbing parameter-degree >= 2 residues of
    nonlinear equations.  The returned family carries symbolic parameters spanning the
    solution; substituting nilpotent values enumerates the actual points.

    The final check, that the solved family leaves no residue under any
    label, reads the residues of the latest evaluation when no correction
    followed it, and evaluates the system once more otherwise; the family's
    matrix and images come from that same evaluation."""
    base = data.L
    sys = _GaloisSystem(data, horizon)
    n = data.X.nrows
    nunknowns = n * n

    def m_matrix(A: NilAlgebra, values: list) -> Matrix:
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                e = A.one() if i == j else A.zero()
                row.append(A.add(e, values[i * n + j]))
            rows.append(row)
        return Matrix(A, rows)

    # linearization at M = I: one evaluation at M = I + sum_u p_u E_u over
    # NilAlgebra(base, (_p0, ...), 2), where every residue is its value at
    # the identity (the constant term) plus its linear part (the coefficient
    # of p_u is column u)
    probe_alg = NilAlgebra(base, tuple(f"_p{u}" for u in range(nunknowns)), 2)
    res, _ = sys.residues(probe_alg,
                          m_matrix(probe_alg, [probe_alg.gen(v) for v in probe_alg.vars]))
    if any((0,) * nunknowns in v for _, v in res):
        A = NilAlgebra(base, (), param_order)
        return GaloisFamily(data, A, [], m_matrix(A, [A.zero()] * nunknowns),
                            {}, Report(False, 1, ["identity is not a point"], {}))
    units = [tuple(int(t == u) for t in range(nunknowns)) for u in range(nunknowns)]
    linear = [{lbl: v[e] for lbl, v in res if e in v} for e in units]
    coords = set().union(*linear)
    jacobian = Echelon(base, linear)
    params = [f"c{j}" for j in range(len(jacobian.dependent))]
    P = NilAlgebra(base, params, param_order)
    values = kernel_values(jacobian, P)

    latest = None  # (values, M, residues over every label, sigma-images)

    def evaluate_at(values: list) -> tuple:
        nonlocal latest
        M = m_matrix(P, values)
        latest = (list(values), M, *sys.residues(P, M))
        return latest

    def residues(values: list) -> dict:
        # only the coordinates of the linearization take part
        return {lbl: v for lbl, v in evaluate_at(values)[2] if lbl in coords}

    failures = [f"residue at parameter monomial {mono} is not absorbable"
                for mono in absorb_residues(P, jacobian, values, residues)]
    # the final check reads the latest evaluation when no correction
    # followed it, and evaluates again otherwise
    if latest is None or not all(map(P.eq, latest[0], values)):
        evaluate_at(values)
    _, M, final_res, images = latest
    if any(not P.is_zero(v) for _, v in final_res):
        failures.append("solved family leaves a nonzero residue")

    report = Report(not failures, len(coords), failures,
                    {"horizon": horizon, "parameters": len(params)})
    return GaloisFamily(data, P, params, M, images, report)


def lie_dim(data: PVData, horizon: int = 3) -> int:
    """Dimension of the formal points over the dual numbers as a module over
    the total field: the parameter count of galois_points at order 2."""
    fam = galois_points(data, horizon=horizon, param_order=2)
    if not fam.report.ok:
        raise ArithmeticError("formal point solve failed: " + "; ".join(fam.report.failures))
    return len(fam.params)


# ---------------------------------------------------------------- compare


class CompareReport:
    """Parameter bijection between infinitesimal automorphisms of the hull
    and formal Picard-Vessiot points."""

    def __init__(self, ok: bool, details: dict):
        self.ok = ok
        self.details = details

    def as_dict(self) -> dict:
        return {"ok": self.ok, **{k: v for k, v in self.details.items()}}


POINT_HEIGHT = 3  # the bound on the integer coordinates find_rational_point tries


def find_rational_point(data: PVData):
    """A base-field point of the principal ring: integer values of absolute
    value <= POINT_HEIGHT for the R-generators that are generators of L
    (nonzero for units of R) making X invertible, or (None, None) when none
    of them does; the point lists every R-generator, each partner read
    through R.hom like X."""
    R = data.R
    k = data.k
    free = [v for v in R.vars if v in data.L.vars]
    units = [R.is_unit(R.var(v)) for v in free]
    candidates = list(range(-POINT_HEIGHT, POINT_HEIGHT + 1))
    candidates.sort(key=lambda c: (abs(c), -c))
    for combo in itertools.product(candidates, repeat=len(free)):
        if any(unit and c == 0 for unit, c in zip(units, combo)):
            continue
        at_point = GeneratorPowers(k, {v: k.from_int(c) for v, c in zip(free, combo)})
        B = Matrix(k, [[R.hom(p, at_point, lambda c: c) for p in row] for row in data.X.rows])
        if not Echelon(k, B.rows).dependent:
            return {v: R.hom(R.var(v), at_point, lambda c: c) for v in R.vars}, B
    return None, None


def compare(data: PVData, hull: HullData, relations, degree: int = 3) -> CompareReport:
    """Match the infinitesimal automorphisms of the hull with the formal
    Picard-Vessiot points over the dual-number style test algebras.

    A base-field point of the principal ring is located first (the theorem
    needs one; a missing point would require an etale base extension, which
    is reported rather than constructed).  Each symbolic infinitesimal
    automorphism is rewritten through the expansion pairing as an R (x) A
    transformation of the generators; the matrix it induces on X is matched
    against the solved formal family, giving the parameter map, and the map
    is verified to be a group isomorphism on symbolic parameters, with the
    symbolic pair's matrices transported from this one (so P.order >= 3).

    details["lie_dim"] is the parameter count of the formal family solved
    here; it equals lie_dim(data), since both solves take the kernel of the
    same linearization at the identity.  data and hull must share the
    field L (ValueError otherwise)."""
    if data.L is not hull.ext.L:
        raise ValueError("the Picard-Vessiot data and the hull are over different fields")
    point, B = find_rational_point(data)
    details: dict = {}
    if point is None:
        return CompareReport(False, {
            "error": "no base-field point of the principal ring with integer "
                     f"coordinates of absolute value <= {POINT_HEIGHT}; a finite etale "
                     "extension would be needed"})
    details["rational_point"] = {v: data.k.to_str(c) for v, c in point.items()}
    details["point_matrix"] = str(B)

    um = solve_points(hull, relations)
    if um.family.empty:
        return CompareReport(False, {"error": "no infinitesimal automorphisms"})
    P = um.family.algebra

    # sigma-side family over a matching algebra
    gal = galois_points(data, param_order=P.order)
    if not gal.report.ok:
        return CompareReport(False, {"error": "formal point solve failed",
                                     "failures": gal.report.failures})
    if len(gal.params) != len(um.family.params):
        return CompareReport(False, {
            "error": "parameter counts differ",
            "umemura": len(um.family.params), "galois": len(gal.params)})

    # rewrite each reconstructed image in split form: sum of deformed
    # expansions of R-monomials times w-free coefficients
    L = data.L
    split = _SplitOperator(L, [data.r_to_L(m) for m in monomial_basis(data.R, degree)],
                           hull.algebra)
    sigma_images = {}
    for label, _ in hull.rho_gens:
        coeffs = split.split(um.images[label], P)
        if coeffs is None:
            return CompareReport(False, {
                "error": f"image of {label} is not split by the R-monomial basis; "
                         f"an etale twist would be required"})
        sigma_images[label] = coeffs
    details["sigma_images"] = {
        lbl: " + ".join(f"({P.to_str(c)})*({L.to_str(b)})"
                        for b, c in zip(split.basis, cs) if not P.is_zero(c))
        for lbl, cs in sigma_images.items()
    }

    # induced matrix on X: sigma(X) entrywise through the generator images
    Minduced = _Induced(data, split, P).matrix(
        [sigma_images[f"rho({name})"] for name in L.vars])
    if Minduced is None:
        return CompareReport(False, {
            "error": "induced matrix is not constant over the test algebra"})
    details["induced_matrix"] = str(Minduced)

    # parameter map: match the induced matrix against the solved family by
    # equating the coefficients of each parameter monomial
    pmap = _match_parameters(Minduced, gal, P)
    if pmap is None:
        return CompareReport(False, {"error": "no parameter bijection matches the "
                                              "solved formal family"})
    details["parameter_map"] = pmap["description"]

    # group law compatibility on symbolic parameters
    hom_ok = _homomorphism_check(data, hull, um, split, Minduced)
    details["group_homomorphism"] = hom_ok
    details["lie_dim"] = len(gal.params)
    details["umemura_parameters"] = list(um.family.params)
    details["galois_parameters"] = list(gal.params)
    details["formal_group"] = um.classification
    return CompareReport(bool(pmap["bijective"] and hom_ok), details)


class _SplitOperator(Echelon):
    """Writes joint elements in split form sum_i deformed(b_i) * c_i: the b_i
    are R-monomials in L, deformed(b) is the theta_u-deformed expansion of
    b, and the c_i are w-free coefficients in a test algebra P.

    The deformed expansions have coordinates in L, free of parameters, so
    one elimination of their coordinate columns serves every split: each
    parameter monomial of an image is one right-hand side."""

    def __init__(self, L, basis: list, alg: ExpansionAlgebra):
        self.basis = basis
        super().__init__(L, (alg.coordinates(alg.expand_rho(b)) for b in basis))

    def split(self, img: HomElement, P: NilAlgebra):
        """The list of c_i, or None when img does not split."""
        coords = ExpansionAlgebra.coordinates(img)
        out: list[dict] = [{} for _ in self.basis]
        for mono in {m for c in coords.values() for m in c}:
            sol = self.solve({key: c[mono] for key, c in coords.items() if mono in c})
            if sol is None:
                return None
            for c, x in zip(out, sol):
                if not P.base.is_zero(x):
                    c[mono] = x
        return out


class _Induced:
    """The matrix X^{-1} sigma(X) over a test algebra P that generator images
    in split form induce; the basis, X and its inverse are lifted to R (x) P
    once."""

    def __init__(self, data: PVData, split: _SplitOperator, P: NilAlgebra):
        self.data = data
        self.split = split
        self.P = P
        RA = self.RA = PolyRing(P, data.R.vars, data.R.inverse_pairs)
        self.basis = [_lift_poly(RA, data.l_to_r(b)) for b in split.basis]
        self.X = data.X.map(lambda p: _lift_poly(RA, p), RA)
        self.Xinv = data.Xinv.map(lambda p: _lift_poly(RA, p), RA)

    def matrix(self, coeffs: list):
        """The induced matrix over P when coeffs[i] are the split coefficients
        of the image of the i-th generator of L; None when it is not
        constant."""
        RA, P = self.RA, self.P
        images = {}
        for name, cs in zip(self.data.L.vars, coeffs):
            img = RA.zero()
            for b, c in zip(self.basis, cs):
                if not P.is_zero(c):
                    img = img + b.scale(c)
            images[name] = img
        sigma = GeneratorPowers(RA, images)
        M = self.Xinv * self.X.map(lambda p: RA.hom(p, sigma, RA.scalar), RA)
        if not all(e.is_const() for row in M.rows for e in row):
            return None
        return M.map(lambda e: e.const_coeff(), P)


def _match_parameters(Minduced: Matrix, gal: GaloisFamily, P: NilAlgebra):
    """Linear identification of the hull-side parameters with the formal
    point parameters: equate the parameter-degree-1 coefficients of the two
    matrices and verify the substitution reproduces the induced matrix."""
    base = gal.algebra.base
    n = Minduced.nrows
    src_params = P.vars
    tgt_params = gal.algebra.vars
    nsrc, ntgt = len(src_params), len(tgt_params)
    entries = [(i, j) for i in range(n) for j in range(n)]

    def unit(t: int, count: int) -> tuple:
        return tuple(int(s == t) for s in range(count))

    # the linear substitution T with params_target = T params_src: one
    # column per target parameter, its coefficients in the entries of the
    # solved family; that block is the same for every source parameter, so
    # it is eliminated once and each source parameter is one right-hand side
    block = Echelon(base, ({e: gal.M.entry(*e).get(unit(tp, ntgt), base.zero()) for e in entries}
                           for tp in range(ntgt)))
    T = []
    for sp in range(nsrc):
        col = block.solve({e: Minduced.entry(*e).get(unit(sp, nsrc), P.base.zero())
                           for e in entries})
        if col is None:
            return None
        T.append(col)
    # bijectivity of the parameter map
    bij = nsrc == ntgt and not Echelon(base, T).dependent
    # verify: substituting the map into the solved family reproduces the
    # induced matrix including higher parameter degrees
    subs_vals = []
    for tp in range(ntgt):
        v = P.zero()
        for sp in range(nsrc):
            c = T[sp][tp]
            if not base.is_zero(c):
                mono = tuple(1 if t == sp else 0 for t in range(nsrc))
                v = P.add(v, P.element({mono: c}))
        subs_vals.append(v)
    for i in range(n):
        for j in range(n):
            got = evaluate(gal.M.entry(i, j).items(), subs_vals, P, P.scalar)
            want = Minduced.entry(i, j)
            if not P.eq(got, want):
                return None
    desc = {}
    for sp, name in enumerate(src_params):
        parts = []
        for tp, tname in enumerate(tgt_params):
            c = T[sp][tp]
            if not base.is_zero(c):
                cs = base.to_str(c)
                if "+" in cs or "-" in cs[1:] or " " in cs:
                    cs = f"({cs})"
                parts.append(tname if cs == "1" else f"{cs}*{tname}")
        desc[name] = " + ".join(parts) if parts else "0"
    return {"bijective": bij, "matrix": T,
            "description": "; ".join(f"{k} -> {v}" for k, v in sorted(desc.items()))}


def _homomorphism_check(data: PVData, hull: HullData, um: UmemuraReport,
                        split: _SplitOperator, Minduced: Matrix) -> bool:
    """The matrix induced by f . g, for the family's symbolic_pair f, g over
    P2, is the product of those induced by f and g.  Inducing commutes with
    algebra maps, so the latter are Minduced, the family's, pushed along the
    transports a_i -> s_i and a_i -> t_i (the family's algebra needs order
    >= P2.order); only f . g is reconstructed, split and induced."""
    fam = um.family
    if not fam.params:
        return True
    f, _, composed = fam.symbolic_pair
    P2 = f.algebra
    Mf, Mg = (Minduced.map(fam.algebra.transport(P2, offset), P2)
              for offset in (0, len(fam.params)))
    coeffs = [split.split(img, P2) for img in hull.images(composed.comps)]
    Mfg = None if None in coeffs else _Induced(data, split, P2).matrix(coeffs)
    return Mfg is not None and Mf * Mg == Mfg
