"""The infinitesimal automorphism group of a hull, as a zero set.

Every polynomial relation among the derivatives of the expanded generators
is twisted into a family of differential polynomials in the unknown
transformation: coefficients are deformed in the w direction, each
generator symbol is replaced by the derivative of its deformation template
(the expansion with w routed through the Y symbols), and one generator is
extracted per operator coordinate.  The zero set of the resulting ideal over
a nilpotent test algebra is the group of infinitesimal automorphisms: points
correspond to transformations, and each point acts on the expanded
generators through the twisted-expansion formula.
"""

from __future__ import annotations

import math
from typing import Sequence

from .exactalg import Frac, power
from .exactalg import terms as _terms
from .hull import HullData, cleared, element_key, relation_vanishes
from .lieritt import (
    DiffPoly,
    LieRittIdeal,
    SolutionFamily,
    evaluate_symbols,
    multi_indices,
    solve_zero_set,
    symbol_derivatives,
)
from .series import TruncSeries
from .taylor import JointElement


def build_ideal(hull: HullData, relations: Sequence[DiffPoly]) -> LieRittIdeal:
    """Twist each relation into differential-polynomial generators.

    Each relation is first cleared of denominators in L (hull.cleared), and
    the cleared coefficients, polynomials, become their w-deformations; as
    theta_u is a ring homomorphism and truncated products are exact, this
    equals deforming each coefficient and multiplying by the deformed
    clearing multiplier.  The symbol for the k-th derivative of generator i
    becomes the k-th derivative of its template sum_m V_(i,m) Y^m, a
    DiffPoly with w-free JointElement coefficients, so only its symbols are
    derived, by symbol_derivatives (_symbol_deriv).  One generator is
    extracted per operator coordinate (word, t-exponent); duplicates and
    scalar multiples are removed and each generator is normalized to leading
    coefficient one."""
    alg = hull.algebra
    L = hull.ext.L
    theta_u = alg.theta_u
    n = theta_u.n
    wh = alg.w_horizon
    wvars = theta_u.wvars

    templates = _templates(hull)
    deriv_cache: dict[tuple[int, tuple[int, ...]], DiffPoly] = {}

    def template_deriv(i: int, k: tuple[int, ...]) -> DiffPoly:
        if (i, k) not in deriv_cache:
            deriv_cache[(i, k)] = _symbol_deriv(templates[i], k)
        return deriv_cache[(i, k)]

    def constant(c: JointElement) -> DiffPoly:
        return DiffPoly(n, L, wvars, wh, {(): c})

    gens: dict[frozenset, DiffPoly] = {}  # structural key -> generator
    for rel in relations:
        twisted = DiffPoly(n, L, wvars, wh, {})
        for key, c in cleared(_terms_over_L(rel)):
            term = constant(alg.from_w_series(theta_u.theta_series(c, wh)))
            for (i, k), e in key:
                term = term * power(template_deriv(i, tuple(k)), e, lambda: constant(alg.one()))
            twisted = twisted + term
        # extract one differential polynomial per operator coordinate
        coords: dict = {}
        for ykey, joint in twisted.terms.items():
            for (word, texp, wexp), c in joint.coordinates().items():
                coords.setdefault((word, texp), {}).setdefault(ykey, {})[wexp] = c
        for coord in sorted(coords, key=str):
            terms = {
                ykey: TruncSeries(L, wvars, wh, wterms)
                for ykey, wterms in coords[coord].items()
            }
            poly = DiffPoly(n, L, wvars, wh, terms)
            poly = _normalize(poly, L)
            if poly is None or poly.is_zero():
                continue
            gens.setdefault(_structural_key(poly), poly)
    return LieRittIdeal(n, L, wvars, wh, sorted(gens.values(), key=lambda g: _signature(g, L)))


def _templates(hull: HullData) -> list[DiffPoly]:
    """The template of each hull generator i, its expansion with w routed
    through the Y symbols: sum over |m| <= w_horizon of the w-free embedding
    of its m-th derivative times prod_j Y_j^(0)^m_j."""
    alg = hull.algebra
    n = alg.theta_u.n
    zero_k = (0,) * n
    templates = []
    for i in range(hull.n_gens()):
        terms = {tuple(((j, zero_k), e) for j, e in enumerate(m) if e):
                 alg.from_hom(hull.derivative_table[(i, tuple(m))])
                 for m in multi_indices(n, alg.w_horizon)}
        templates.append(DiffPoly(n, hull.ext.L, alg.theta_u.wvars, alg.w_horizon, terms))
    return templates


def _symbol_deriv(poly: DiffPoly, l: tuple[int, ...]) -> DiffPoly:
    """poly.hasse_deriv(l) for a polynomial whose coefficients are free of w:
    the symbols are derived by symbol_derivatives, the coefficients only
    scaled, since all their derivatives vanish."""
    if not any(l):
        return poly
    from_int = poly.coeff_ring.from_int
    items = []
    for key, c in poly.terms.items():
        for dkey, m in symbol_derivatives(key, l, poly.horizon):
            t = c if m == 1 else c.scale(from_int(m))
            if not t.is_zero():
                items.append((dkey, t))
    return DiffPoly(poly.nstreams, poly.coeff_ring, poly.wvars, poly.horizon,
                    _terms.accumulate({}, items, _terms.OPERATORS))


def _terms_over_L(rel: DiffPoly) -> list[tuple]:
    return [(key, c.coeff((0,) * len(c.vars))) for key, c in rel.terms.items()]


def _normalize(poly: DiffPoly, L) -> DiffPoly | None:
    """Scale so the leading term (highest Y-degree, then highest derivative
    order) has a w-minimal coefficient with unit scalar part; poly itself
    when that scalar is already 1."""
    if not poly.terms:
        return None
    lead_key = max(poly.terms, key=_term_order)
    series = poly.terms[lead_key]
    lead_exp = min(series.terms, key=lambda e: (sum(e), e))
    c = series.terms[lead_exp]
    s = _unit_scalar(L, c)
    F = L.scalars
    if s is None or F.eq(s, F.one()):
        return poly
    inv = L.const(F.inv(s))
    return DiffPoly(
        poly.nstreams, poly.coeff_ring, poly.wvars, poly.horizon,
        {k: ser.scale(inv) for k, ser in poly.terms.items()},
    )


def _unit_scalar(L, c):
    """The scalar-field content of a field element's canonical form."""
    if isinstance(c, Frac):
        if c.num.is_zero():
            return None
        _, lead = c.num.leading()
        return lead
    if isinstance(c, tuple):  # algebraic extension element
        for comp in c:
            if not comp.is_zero():
                _, lead = comp.num.leading()
                return lead
        return None
    return c


def _term_order(key):
    total = sum(e for _, e in key)
    orders = tuple(sorted((sum(k), i, k) for (i, k), _ in key))
    return (total, orders)


def _structural_key(poly: DiffPoly) -> frozenset:
    """A hashable key that tells generators apart without printing them."""
    return frozenset((ykey, frozenset((e, element_key(c)) for e, c in s.terms.items()))
                     for ykey, s in poly.terms.items())


def _signature(poly: DiffPoly, L) -> tuple:
    out = []
    for key in sorted(poly.terms, key=str):
        s = poly.terms[key]
        out.append((str(key), tuple(sorted((e, L.to_str(c)) for e, c in s.terms.items()))))
    return tuple(out)


class UmemuraReport:
    """Solved infinitesimal automorphism group of a hull."""

    def __init__(self, hull: HullData, ideal: LieRittIdeal, family: SolutionFamily,
                 images: dict, checks: dict, classification: dict):
        self.hull = hull
        self.ideal = ideal
        self.family = family
        self.images = images
        self.checks = checks
        self.classification = classification

    def as_dict(self) -> dict:
        return {
            "ideal": [str(g) for g in self.ideal.generators],
            "solution": self.family.shape(),
            "parameters": list(self.family.params),
            "constraints": list(self.family.constraints),
            "images": {k: str(v) for k, v in self.images.items()},
            "checks": dict(self.checks),
            "formal_group": dict(self.classification),
        }


def solve_points(hull: HullData, relations: Sequence[DiffPoly],
                 ideal: LieRittIdeal | None = None) -> UmemuraReport:
    """Solve the ideal over the symbolic test algebra and reconstruct the
    action of each point on the expanded generators.

    The reconstruction is HullData.images, the twisted-expansion formula:
    the image of an expanded generator is the sum over k of its k-th
    derivative times the k-th power of the transformation deviation.  Both
    the congruence to the identity modulo nilpotents and the preservation
    of all relations are re-checked on the symbolic family, and each
    relation, cleared of denominators (hull.cleared), is first checked to
    vanish on the generators by hull.relation_vanishes."""
    L = hull.ext.L
    table = hull.derivative_table
    unit = next(iter(table.values())).one()
    cleared_rels = [cleared(_terms_over_L(rel)) for rel in relations]
    for terms in cleared_rels:
        if not relation_vanishes((math.prod((table[sym] for sym, e in key for _ in range(e)),
                                            start=unit), c) for key, c in terms):
            raise ValueError("relation does not vanish on the hull generators")

    if ideal is None:
        ideal = build_ideal(hull, relations)
    family = solve_zero_set(ideal)
    classification = identify_formal_group(family)
    if family.empty:
        return UmemuraReport(hull, ideal, family, {}, {"solved": False}, classification)

    alg = hull.algebra
    P = family.algebra
    alg_P = alg.with_ring(P)
    wh = alg.w_horizon
    images = {}
    congruent = True
    for (label, _, joint), img in zip(hull.rho_gens, hull.images(family.components)):
        images[label] = img
        # congruence: killing the parameters recovers the undeformed image
        if img.map_coeffs(P.unit_part, alg) != joint:
            congruent = False

    # each symbol's w-derivative image and each coefficient's lift, once per call
    symbol_images = {sym: images[hull.rho_gens[sym[0]][0]].hasse_deriv(sym[1])
                     for sym in set().union(*(rel.symbols() for rel in relations))}
    lifts: dict = {}

    def lift(c):
        key = element_key(c)
        if key not in lifts:
            lifts[key] = alg_P.from_w_series(alg.theta_u.theta_series(c, wh), lift=P.scalar)
        return lifts[key]

    relations_ok = all(evaluate_symbols(terms, symbol_images.__getitem__, alg_P, lift,
                                        lambda c: L.eq(c, L.one())).is_zero()
                       for terms in cleared_rels)

    checks = {
        "solved": True,
        "congruent_to_identity": congruent,
        "relations_preserved": relations_ok,
        "constraints": list(family.constraints),
    }
    return UmemuraReport(hull, ideal, family, images, checks, classification)


def group_compatibility_check(hull: HullData, report: UmemuraReport) -> bool:
    """The point map sends composition of automorphisms to composition of
    transformations: applying one point to the reconstructed image of
    another equals reconstructing along the composed transformation.  The
    points are the family's symbolic_pair (f, g, f . g).  The images of f
    are the report's transported along a_i -> s_i, since reconstruction
    commutes with algebra maps (the family's order must be >= 3); the
    others are reconstructed by HullData.images."""
    family = report.family
    if family.empty or not family.params:
        return True
    f, g, composed = family.symbolic_pair
    to_f, alg_f = family.algebra.transport(f.algebra, 0), hull.algebra.with_ring(f.algebra)
    # phi_f applied after phi_g: derivatives of phi_f's image, paired with
    # powers of phi_g's deviation
    f_images = [img.map_coeffs(to_f, alg_f) for img in report.images.values()]
    after_g = hull.images(g.comps, lambda i, k: f_images[i].hasse_deriv(k))
    return after_g == hull.images(composed.comps)


# ------------------------------------------------------------ classification


def identify_formal_group(family: SolutionFamily) -> dict:
    """Match a solved family against the shipped one-parameter templates.

    Returns a dict with keys tag (trivial, Ga_hat, Gm_hat, Gm_hat_conjugate,
    unclassified, empty), display, parameter_law, and for the conjugate
    multiplicative case the straightening isomorphism."""
    if family.empty:
        return {"tag": "empty", "display": "empty zero set"}
    nparams = len(family.params)
    n = len(family.components)
    if nparams == 0:
        return {"tag": "trivial", "display": "trivial group (identity only)"}
    law = _parameter_law(family)
    if nparams == 1 and n == 1:
        P = family.algebra
        L = P.base
        direction: dict = {}
        for e, c in family.components[0].terms.items():
            lin = c.get((1,), None)
            if lin is not None and not L.is_zero(lin):
                direction[e] = lin
        if set(direction) == {(0,)} and L.eq(direction[(0,)], L.one()):
            return {"tag": "Ga_hat", "display": "additive formal group",
                    "parameter_law": law}
        if set(direction) == {(1,)} and L.eq(direction[(1,)], L.one()):
            return {"tag": "Gm_hat", "display": "multiplicative formal group",
                    "parameter_law": law}
        if set(direction) == {(0,), (1,)} and L.eq(direction[(1,)], L.one()):
            c = direction[(0,)]
            return {
                "tag": "Gm_hat_conjugate",
                "display": "multiplicative formal group (conjugated form)",
                "parameter_law": law,
                "isomorphism": f"(1 + a)*w  ->  ({L.to_str(c)})*a + (1 + a)*w",
            }
    return {"tag": "unclassified", "display": "unclassified formal group",
            "parameter_law": law}


def _parameter_law(family: SolutionFamily) -> str:
    """Compose two symbolic members and express the result in the family.

    For one-parameter linear families the composed transformation equals the
    family member at a parameter value u(s, t); the returned string reads
    "law(a, a') = u", the parameter of the composite of the members at a
    and a'.
    An inexpressible composition reports 'not closed within bounds'."""
    L = family.algebra.base
    f, _, comp = family.symbolic_pair
    P2 = f.algebra
    if len(family.params) != 1:
        return "composition computed; no closed form attempted"
    # solve family(u) == comp for u by matching the coefficient where the
    # parameter direction is 1
    P = family.algebra
    direction: dict = {}
    for i, c in enumerate(family.components):
        for e, cc in c.terms.items():
            lin = cc.get((1,), None)
            if lin is not None:
                direction[(i, e)] = lin
    probe = next(((i, e) for (i, e), lin in direction.items() if L.eq(lin, L.one())), None)
    if probe is None:
        return "not closed within bounds"
    i, e = probe
    u = P2.nil_part(comp.comps[i].terms.get(e, P2.zero()))
    # verify: substituting u reproduces the composition
    check = family.instantiate(P2, {family.params[0]: u})
    if check != comp:
        return "not closed within bounds"
    a = family.params[0]
    return f"law({a}, {a}') = " + P2.to_str(u).replace("s0", a).replace("t0", f"{a}'")
