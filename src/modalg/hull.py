"""Galois hulls of extensions with bialgebra actions.

Given an extension L | K with an action of operators on L and a separating
transcendence basis u, the *basis derivation* is the unique iterative
derivation with u_i -> u_i + w_i, trivial on K, extended to fractions
through series reciprocals and to separable algebraic generators by solving
their defining equations degree by degree.

The hull is the smallest subring of the function realization containing the
trivially-embedded copy of L and the fully expanded copy of L (resp. K) that
is stable under the basis derivation.  hull_generators computes a finite
generating set together with its derivative closure, find_relations searches
for the polynomial relations among the derivatives of the expanded
generators that feed the infinitesimal-automorphism solver, and change_basis
produces the series substitution carrying one basis derivation into another.
"""

from __future__ import annotations

from typing import Sequence

from .actions import ActionSpec, HomElement, Report
from .exactalg import AlgebraicField, Echelon, FracField, Matrix, kernel_basis
from .lieritt import DiffPoly, multi_indices
from .series import TruncSeries, formal_inverse
from .taylor import ExpansionAlgebra


class ExtensionDesc:
    """An extension L | K with its action and a transcendence basis.

    L is a FracField or AlgebraicField context; K is generated over the
    scalar field by K_gens (empty for the prime-field case).  basis lists
    the separating transcendence basis elements of L over K.
    """

    def __init__(self, L, basis: Sequence, action: ActionSpec, K_gens: Sequence = (),
                 K_vars: Sequence[str] = (), name: str = ""):
        self.L = L
        self.basis = list(basis)
        self.action = action
        self.K_gens = list(K_gens)
        self.K_vars = tuple(K_vars)
        self.name = name
        if action.ring != L:
            raise ValueError("action is not over the declared field")

    def n(self) -> int:
        return len(self.basis)

    def transcendental_vars(self) -> tuple[str, ...]:
        L = self.L
        vs = L.base.vars if isinstance(L, AlgebraicField) else L.vars
        return tuple(v for v in vs if v not in self.K_vars)

    def validate(self, horizon: int = 2) -> Report:
        """Jacobian criterion: the basis must separate, i.e. the matrix of
        first divided derivatives of the basis elements along the variable
        directions must be invertible over L."""
        failures = []
        theta0 = variable_basis_derivation(self.L, horizon, fixed_vars=self.K_vars)
        n = self.n()
        tvars = self.transcendental_vars()
        if n != len(tvars):
            failures.append(
                f"basis length {n} does not match transcendence degree {len(tvars)}"
            )
        else:
            jac = []
            for v in self.basis:
                s = theta0.theta_series(v, 1)
                row = []
                for j in range(n):
                    e = [0] * n
                    e[j] = 1
                    row.append(s.coeff(tuple(e)))
                jac.append(row)
            try:
                Matrix(self.L, jac).inverse()
            except ValueError:
                failures.append("basis Jacobian is singular; not a separating basis")
        return Report(not failures, 1 + n, failures, {"horizon": horizon})


def variable_basis_derivation(L, horizon: int, fixed_vars: Sequence[str] = ()) -> ActionSpec:
    """The iterative derivation sending each moving field variable v to
    v + w_v, fixing the declared subfield variables, and solving the defining
    equation of an algebraic generator."""
    if isinstance(L, AlgebraicField):
        all_vars = L.base.vars
    elif isinstance(L, FracField):
        all_vars = L.vars
    else:
        raise ValueError(f"unsupported field context {L!r}")
    moving = [v for v in all_vars if v not in fixed_vars]
    n = len(moving)
    wvars = ("w",) if n == 1 else tuple(f"w{i+1}" for i in range(n))
    images = {}
    for name in all_vars:
        exp: dict = {(0,) * n: L.var(name)}
        if name in moving:
            e = [0] * n
            e[moving.index(name)] = 1
            exp[tuple(e)] = L.one()
        images[name] = TruncSeries(L, wvars, horizon, exp)
    if isinstance(L, AlgebraicField):
        images[L.gen_name] = _solve_algebraic_image(L, images, wvars, horizon)
    return ActionSpec(L, "iterder", n=n, theta_images=images, wvars=wvars)


def _solve_algebraic_image(L: AlgebraicField, images: dict, wvars, horizon: int) -> TruncSeries:
    """Degree-by-degree lift of the defining equation: the unique series
    g = z + O(w) with P^theta(g) = 0, where P^theta has the base coefficients
    expanded.  Requires P separable (P'(z) a unit)."""
    if not L.is_separable():
        raise ValueError("inseparable algebraic generator; no unique derivation lift")
    from .actions import _frac_series

    n = len(wvars)
    coeff_series = [
        _frac_series(c, images, L, wvars, horizon) for c in L.minpoly
    ]

    def p_theta(g: TruncSeries) -> TruncSeries:
        out = TruncSeries.zero(L, wvars, horizon)
        gpow = TruncSeries.one(L, wvars, horizon)
        for c in coeff_series:
            out = out + c * gpow
            gpow = gpow * g
        return out

    # P'(z) in L: sum_{i>=1} i c_i z^(i-1)
    z = L.var(L.gen_name)
    dP_at_z = L.zero()
    zpow = L.one()
    for i in range(1, len(L.minpoly)):
        term = L.mul(L.from_int(i), L.from_base(L.minpoly[i]))
        dP_at_z = L.add(dP_at_z, L.mul(term, zpow))
        zpow = L.mul(zpow, z)
    inv_slope = L.inv(dP_at_z)

    g = TruncSeries.const(L, wvars, horizon, z)
    for _ in range(horizon + 1):
        resid = p_theta(g)
        if resid.is_zero():
            break
        g = g - resid.scale(inv_slope)
    if not p_theta(g).is_zero():
        raise ArithmeticError("underdetermined algebraic generator: the defining "
                              "equation did not lift")
    return g


def make_basis_derivation(ext: ExtensionDesc, horizon: int) -> ActionSpec:
    """The iterative derivation of the declared basis: basis_i -> basis_i + w_i.

    When the basis consists of the field variables themselves this is the
    direct construction; otherwise the variable derivation is composed with
    the change-of-basis substitution."""
    L = ext.L
    theta0 = variable_basis_derivation(L, horizon, fixed_vars=ext.K_vars)
    tvars = ext.transcendental_vars()
    if [str_of(L, b) for b in ext.basis] == [str_of(L, L.var(v)) for v in tvars]:
        return theta0
    subst, rep = change_basis_substitution(L, theta0, ext.basis, horizon)
    if not rep.ok:
        raise ValueError("; ".join(rep.failures))
    images = {}
    for name in L.vars:
        img = theta0._theta_image(name, horizon)
        images[name] = img.compose(list(subst), strict=False)
    return ActionSpec(L, "iterder", n=theta0.n, theta_images=images, wvars=theta0.wvars)


def str_of(L, elem) -> str:
    return L.to_str(elem) if hasattr(L, "to_str") else str(elem)


def change_basis_substitution(L, theta0: ActionSpec, new_basis: Sequence, horizon: int):
    """The series tuple t with theta_new = theta_old after substituting w -> t.

    Solves s_i(t(w)) = w_i for s_i = theta_old(v_i) - v_i via the formal
    inverse; a singular Jacobian means the new basis does not separate."""
    n = theta0.n
    failures = []
    s = []
    for v in new_basis:
        ser = theta0.theta_series(v, horizon)
        dev = ser - TruncSeries.const(L, theta0.wvars, horizon, v)
        s.append(dev)
    try:
        t = formal_inverse(s)
    except (ValueError, ArithmeticError) as exc:
        return None, Report(False, n, [f"substitution inverse failed: {exc}"], {})
    return t, Report(not failures, n, failures, {"horizon": horizon})


def change_basis(ext: ExtensionDesc, new_basis: Sequence, horizon: int):
    """Substitution tuple plus verification that the rebased derivation sends
    each new basis element to itself plus the matching variable."""
    theta_u = make_basis_derivation(ext, horizon)
    subst, rep = change_basis_substitution(ext.L, theta_u, new_basis, horizon)
    if not rep.ok:
        return None, rep
    failures = []
    checked = 0
    new_ext = ExtensionDesc(ext.L, list(new_basis), ext.action, ext.K_gens)
    theta_v = make_basis_derivation(new_ext, horizon)
    for i, v in enumerate(new_basis):
        checked += 1
        got = theta_v.theta_series(v, horizon)
        e = [0] * theta_u.n
        e[i] = 1
        expected = TruncSeries(
            ext.L, theta_u.wvars, horizon,
            {(0,) * theta_u.n: v, tuple(e): ext.L.one()},
        )
        if got != expected:
            failures.append(f"rebased derivation moves basis element {i} incorrectly")
    for name in ext.L.vars:
        checked += 1
        lhs = theta_v.theta_series(ext.L.var(name), horizon)
        rhs = theta_u.theta_series(ext.L.var(name), horizon).compose(list(subst), strict=False)
        if lhs != rhs:
            failures.append(f"substitution does not intertwine the derivations on {name}")
    return subst, Report(not failures, checked, failures, {"horizon": horizon})


# ------------------------------------------------------------------- hull


class HullData:
    """Finite presentation of the hull: trivially-embedded generators, fully
    expanded generators with their derivative closure, and the expansion
    algebra everything lives in."""

    def __init__(self, ext: ExtensionDesc, algebra: ExpansionAlgebra,
                 rho0_gens: list, rho_gens: list, rho_K_gens: list,
                 derivative_table: dict, closure: Report):
        self.ext = ext
        self.algebra = algebra
        self.rho0_gens = rho0_gens          # [(label, HomElement)]
        self.rho_gens = rho_gens            # [(label, elem, JointElement)]
        self.rho_K_gens = rho_K_gens        # [(label, JointElement)]
        self.derivative_table = derivative_table  # (i, k) -> HomElement
        self.closure = closure

    def n_gens(self) -> int:
        return len(self.rho_gens)

    def describe(self) -> dict:
        return {
            "base_ring_gens": [label for label, _ in self.rho0_gens],
            "expanded_gens": {
                label: str(j) for label, _, j in self.rho_gens
            },
            "constants_part_gens": [label for label, _ in self.rho_K_gens],
            "closure": self.closure.as_dict(),
        }


def hull_generators(ext: ExtensionDesc, t_horizon: int, w_horizon: int,
                    word_bound: int | None = None, span_degree: int = 2) -> HullData:
    """Generators of the hull and their derivative closure.

    Every divided derivative of an expanded generator is tested for
    membership in the span of monomials (degree <= span_degree) in the
    already-accepted generators with coefficients from the embedded copy of
    L; derivatives outside the span are appended as new generators.  The
    report states whether this closure stabilized within the horizon."""
    L = ext.L
    theta_u = make_basis_derivation(ext, w_horizon)
    algebra = ExpansionAlgebra(ext.action, theta_u, t_horizon, w_horizon, word_bound)

    rho0_gens = [(f"rho0({name})", algebra.expand_rho0(L.var(name))) for name in L.vars]
    gen_elems = [L.var(name) for name in L.vars]
    rho_gens = [
        (f"rho({name})", g, algebra.expand_rho(g)) for name, g in zip(L.vars, gen_elems)
    ]
    rho_K_gens = [(f"rho(K:{str_of(L, g)})", algebra.expand_rho(g)) for g in ext.K_gens]

    table: dict = {}
    for i, (_, _, joint) in enumerate(rho_gens):
        for k in multi_indices(theta_u.n, w_horizon):
            table[(i, tuple(k))] = joint.w_slice(k)

    accepted: list[HomElement] = [hom for _, hom in
                                  [(lbl, j.w_slice((0,) * theta_u.n)) for lbl, j in rho0_gens]]
    accepted += [table[(i, (0,) * theta_u.n)] for i in range(len(rho_gens))]
    span = _monomial_span(accepted, L, span_degree)
    new_gens = []
    failures = []
    stabilized_at = 0
    for order in range(1, w_horizon + 1):
        added_this_order = False
        for i in range(len(rho_gens)):
            for k in multi_indices(theta_u.n, order, order):
                v = table[(i, tuple(k))]
                if not span.contains(_hom_coordinates(v)):
                    accepted.append(v)
                    span = _monomial_span(accepted, L, span_degree)
                    new_gens.append(((i, tuple(k)), v))
                    added_this_order = True
        if added_this_order:
            stabilized_at = order
    # a second sweep: closure stabilized iff the last horizon order added nothing
    if stabilized_at >= w_horizon:
        failures.append(
            f"derivative closure still growing at order {w_horizon}; "
            f"raise the horizon to certify stabilization"
        )
    closure = Report(not failures, len(table), failures,
                     {"t_horizon": t_horizon, "w_horizon": w_horizon,
                      "stabilized_at": stabilized_at,
                      "extra_gens": [str(k) for k, _ in new_gens]})
    return HullData(ext, algebra, rho0_gens, rho_gens, rho_K_gens, table, closure)


def _hom_coordinates(v: HomElement) -> dict:
    out = {}
    for word, s in v.data.items():
        for e, c in s.terms.items():
            out[(word, e)] = c
    return out


def _monomial_span(gens: list[HomElement], L, span_degree: int) -> Echelon:
    """Echelon of the L-span of the monomials of bounded degree in gens, over
    the coordinates of _hom_coordinates."""
    span = Echelon(L)
    for m in _hom_monomials(gens, span_degree):
        span.add(_hom_coordinates(m))
    return span


def _hom_monomials(gens: list[HomElement], degree: int) -> list[HomElement]:
    if not gens:
        return []
    ref = gens[0]
    one = HomElement(
        ref.ring, ref.monoid, ref.tvars, ref.horizon, ref.word_bound,
        {w: TruncSeries.one(ref.ring, ref.tvars, ref.horizon) for w in ref.data},
    )
    out = [one]
    frontier = [one]
    for _ in range(degree):
        nxt = []
        for f in frontier:
            for g in gens:
                nxt.append(f * g)
        frontier = nxt
        out.extend(frontier)
    # dedupe by coordinates
    seen = set()
    uniq = []
    for m in out:
        key = tuple(sorted((k, str(c)) for k, c in _hom_coordinates(m).items()))
        if key not in seen:
            seen.add(key)
            uniq.append(m)
    return uniq


# -------------------------------------------------------------- relations


def find_relations(hull: HullData, diff_order: int, degree: int,
                   max_monomials: int = 4000) -> list[DiffPoly]:
    """Linear relations over L among bounded monomials in the derivatives of
    the expanded generators, echelonized and pruned of consequences of
    lower-degree relations.  Completeness holds only relative to the stated
    bounds; each returned polynomial vanishes identically on the generators.
    """
    L = hull.ext.L
    theta_u = hull.algebra.theta_u
    nvars = theta_u.n
    nstreams = hull.n_gens()
    symbols = [(i, tuple(k)) for i in range(nstreams) for k in multi_indices(nvars, diff_order)]

    # monomials by total degree, as multisets of symbols
    monomials_by_degree: list[list[tuple]] = [[()]]
    for d in range(1, degree + 1):
        level = []
        for m in monomials_by_degree[d - 1]:
            start = symbols.index(m[-1]) if m else 0
            for s in symbols[start:]:
                level.append(m + (s,))
        monomials_by_degree.append(level)
    total = sum(len(lv) for lv in monomials_by_degree)
    if total > max_monomials:
        raise ValueError(f"relation search space too large ({total} monomials)")

    def value(mono: tuple) -> HomElement:
        v = None
        for sym in mono:
            hv = hull.derivative_table[sym]
            v = hv if v is None else v * hv
        if v is None:
            ref = hull.derivative_table[symbols[0]]
            v = HomElement(
                ref.ring, ref.monoid, ref.tvars, ref.horizon, ref.word_bound,
                {w: TruncSeries.one(ref.ring, ref.tvars, ref.horizon) for w in ref.data},
            )
        return v

    all_monos: list[tuple] = []
    column: dict[tuple, int] = {}  # monomial -> its index in all_monos
    values: list[HomElement] = []
    coords: list[dict] = []
    relations: list[dict] = []  # monomial multiset -> coefficient in L
    for d in range(0, degree + 1):
        for m in monomials_by_degree[d]:
            column[m] = len(all_monos)
            all_monos.append(m)
            values.append(value(m))
            coords.append(_hom_coordinates(values[-1]))
        keys = sorted({k for c in coords for k in c}, key=str)
        rows = [[c.get(key, L.zero()) for c in coords] for key in keys]
        kernel = kernel_basis(rows, L, ncols=len(all_monos))
        if not kernel:
            continue
        # span of consequences: earlier relations multiplied by monomials
        span = Echelon(L)
        for rel in relations:
            rel_deg = max(len(m) for m in rel)
            for shift_deg in range(0, d - rel_deg + 1):
                for shift in monomials_by_degree[shift_deg]:
                    vec = {}
                    for m, c in rel.items():
                        col = column.get(tuple(sorted(m + shift)))
                        if col is None:
                            break
                        vec[col] = c
                    else:
                        span.add(vec)
        for vec in kernel:
            if span.add(vec):
                relations.append({m: c for m, c in zip(all_monos, vec) if not L.is_zero(c)})
    out = []
    for rel in relations:
        out.append(_relation_to_diffpoly(rel, hull, nstreams, nvars))
    # verify: every relation vanishes on the generators
    for rel in relations:
        v = None
        for m, c in rel.items():
            term = values[column[m]].scale(c)
            v = term if v is None else v + term
        if v is None or not all(s.is_zero() for s in v.data.values()):
            raise ArithmeticError("relation does not vanish on the hull generators")
    return out


def _relation_to_diffpoly(rel: dict, hull: HullData, nstreams: int, nvars: int) -> DiffPoly:
    L = hull.ext.L
    wvars = hull.algebra.wvars
    horizon = hull.algebra.w_horizon
    terms = {}
    for mono, c in rel.items():
        counts: dict = {}
        for sym in mono:
            counts[sym] = counts.get(sym, 0) + 1
        key = tuple(sorted(counts.items()))
        terms[key] = TruncSeries.const(L, wvars, horizon, c)
    return DiffPoly(nstreams, L, wvars, horizon, terms)


__all__ = [
    "ExtensionDesc",
    "HullData",
    "change_basis",
    "change_basis_substitution",
    "find_relations",
    "hull_generators",
    "make_basis_derivation",
    "variable_basis_derivation",
]
