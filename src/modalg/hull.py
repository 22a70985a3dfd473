"""Galois hulls of extensions with bialgebra actions.

Given an extension L | K with an action of operators on L and a separating
transcendence basis u, the *basis derivation* is the unique iterative
derivation with u_i -> u_i + w_i, trivial on K, extended to fractions
through series division and to separable algebraic generators by solving
their defining equations degree by degree.  make_basis_derivation builds it
for any declared basis and certifies it when it is built.

The hull is the smallest subring of the function realization generated over
the trivially-embedded copy rho0(L) = L by the fully expanded copy rho(L) and
its derivatives under the basis derivation.  rho0(L) enters as the
coefficient field of the spans: hull_generators computes a finite
generating set of rho(L) together with its derivative closure, an L-span of
monomials in them, and find_relations searches for the polynomial relations
over L among the derivatives of the expanded generators that feed the
infinitesimal-automorphism solver.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .actions import DEFAULT_WORD_BOUND, ActionSpec, HomElement, Report
from .exactalg import Echelon, Frac, FracField, GeneratorPowers, evaluate
from .exactalg import terms as _terms
from .lieritt import DiffPoly, multi_indices
from .series import SeriesRing, TruncSeries, formal_inverse, identity_tuple
from .taylor import ExpansionAlgebra


class ExtensionDesc:
    """An extension L | K with its action and a transcendence basis.

    L is a FracField or AlgebraicField context; K is generated over the
    scalar field by the field variables K_vars (none for the prime-field
    case), which the basis derivation fixes.  basis lists the separating
    transcendence basis elements of L over K.
    """

    def __init__(self, L, basis: Sequence, action: ActionSpec,
                 K_vars: Sequence[str] = (), name: str = ""):
        self.L = L
        self.basis = list(basis)
        self.action = action
        self.K_vars = tuple(K_vars)
        self.name = name
        if action.ring is not L:
            raise ValueError("action is not over the declared field")

    def transcendental_vars(self) -> tuple[str, ...]:
        return tuple(v for v in _field_variables(self.L) if v not in self.K_vars)


def _field_variables(L) -> tuple[str, ...]:
    """The names of the rational function field variables of L: its own for
    a FracField, its base's for an AlgebraicField (whose vars also name the
    algebraic generator)."""
    if isinstance(L, FracField):
        return L.vars
    from .exactalg import AlgebraicField

    if isinstance(L, AlgebraicField):
        return L.base.vars
    raise ValueError(f"unsupported field context {L!r}")


def variable_basis_derivation(L, horizon: int, fixed_vars: Sequence[str] = ()) -> ActionSpec:
    """The iterative derivation sending each moving field variable v to
    v + w_v, fixing the declared subfield variables, and solving the defining
    equation of an algebraic generator."""
    all_vars = _field_variables(L)
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
    if not isinstance(L, FracField):
        # _field_variables admits only a FracField or an AlgebraicField
        images[L.gen_name] = _solve_algebraic_image(L, images, wvars, horizon)
    return ActionSpec(L, "iterder", n=n, theta_images=images, wvars=wvars)


def _solve_algebraic_image(L, images: dict, wvars, horizon: int) -> TruncSeries:
    """Degree-by-degree lift of the defining equation of the AlgebraicField
    L: the unique series g = z + O(w) with P^theta(g) = 0, where P^theta has
    the base coefficients expanded.  Requires P separable, which holds
    exactly when P'(z) is a unit of L."""
    # P'(z) in L: sum_{i>=1} i c_i z^(i-1)
    z = L.var(L.gen_name)
    dP_at_z = evaluate((((i - 1,), L.mul(L.from_int(i), L.from_base(c)))
                        for i, c in enumerate(L.minpoly) if i), [z], L, lambda v: v)
    try:
        inv_slope = L.inv(dP_at_z)
    except ZeroDivisionError:
        raise ValueError("inseparable algebraic generator; no unique derivation lift") from None
    ring = SeriesRing(L, wvars, horizon)
    powers = GeneratorPowers(ring, images)
    coeff_series = [L.base.hom(c, powers, lambda v: ring.scalar(L.scalar(v))) for c in L.minpoly]

    def p_theta(g: TruncSeries) -> TruncSeries:
        return evaluate((((i,), c) for i, c in enumerate(coeff_series)), [g], ring, lambda v: v)

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

    When the basis consists of the moving field variables this is the
    variable derivation.  Otherwise it is the variable derivation after the
    substitution w -> s, for s the formal inverse of the deviations
    theta(b_i) - b_i of the basis elements b_i.  A singular Jacobian means
    the basis does not separate, and raises ValueError; so does a rebased
    derivation that does not send each b_i to b_i + w_i."""
    L = ext.L
    theta0 = variable_basis_derivation(L, horizon, fixed_vars=ext.K_vars)
    tvars = ext.transcendental_vars()
    if len(ext.basis) == len(tvars) and all(map(L.eq, ext.basis, map(L.var, tvars))):
        return theta0
    wvars = theta0.wvars
    deviations = [theta0.theta_series(b, horizon) - TruncSeries.const(L, wvars, horizon, b)
                  for b in ext.basis]
    try:
        subst = list(formal_inverse(deviations))
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"the basis does not separate: substitution inverse failed: "
                         f"{exc}") from None
    images = {name: theta0.theta_images[name].compose(subst, strict=False) for name in L.vars}
    theta = ActionSpec(L, "iterder", n=theta0.n, theta_images=images, wvars=wvars)
    for i, (b, w) in enumerate(zip(ext.basis, identity_tuple(L, wvars, horizon))):
        if theta.theta_series(b, horizon) != TruncSeries.const(L, wvars, horizon, b) + w:
            raise ValueError(f"rebased derivation moves basis element {i} incorrectly")
    return theta


# ------------------------------------------------------------------- hull


class HullData:
    """Finite presentation of the hull: the fully expanded generators with
    their derivative closure, over the coefficient field L, and the
    expansion algebra everything lives in."""

    def __init__(self, ext: ExtensionDesc, algebra: ExpansionAlgebra, rho_gens: list,
                 derivative_table: dict, closure: Report):
        self.ext = ext
        self.algebra = algebra
        # the elements of algebra are HomElements with w-series values
        self.rho_gens = rho_gens            # [(label, element of algebra)]
        self.derivative_table = derivative_table  # (i, k) -> t-only HomElement over L
        self.closure = closure
        # (i, k) -> entry deformed over L; at k = 0 it is the joint expansion
        zero = (0,) * algebra.theta_u.n
        self._deformed = {(i, zero): joint for i, (_, joint) in enumerate(rho_gens)}

    def n_gens(self) -> int:
        return len(self.rho_gens)

    def images(self, comps: Sequence[TruncSeries], entry: Callable | None = None) -> list:
        """The image of every expanded generator under the transformation
        w -> comps, over the comps' test algebra P, by the twisted-expansion
        formula: generator i goes to sum_k entry(i, k) * (comps - w)^k.
        The deviation comps - w has nilpotent coefficients (else ValueError),
        and P.order of them multiply to zero, so the sum stops at
        |k| = P.order - 1 and entry is called only for those k.  The default
        entry is derivative_table[(i, k)] deformed by the basis derivation
        over L, once per hull on first use, then lifted to P
        coefficientwise.  Each power
        (comps - w)^k is formed once per call, as a w-series over P, and
        scales entry(i, k) on every word (HomElement.scale)."""
        alg = self.algebra
        P = comps[0].ring
        alg_P = alg.with_ring(P)
        deviation = [c - w for c, w in zip(comps, identity_tuple(P, comps[0].vars, alg.w_horizon))]
        if not all(P.is_nilpotent(x) for d in deviation for x in d.terms.values()):
            raise ValueError("transformation is not the identity modulo nilpotents")
        if entry is None:
            def entry(i, k):
                if (i, k) not in self._deformed:
                    self._deformed[i, k] = alg._deform_hom(self.derivative_table[(i, k)])
                return alg.lift(self._deformed[i, k], P.scalar, alg_P)
        # each power (comps - w)^k, a w-series over P, once per call
        S = alg_P.coeffs
        powers = GeneratorPowers(S, {j: TruncSeries(P, S.vars, S.horizon, d.terms)
                                     for j, d in enumerate(deviation)})
        scales = []
        for k in multi_indices(alg.theta_u.n, min(alg.w_horizon, P.order - 1)):
            c = None
            for j, e in enumerate(k):
                if e:
                    c = powers.power(j, e) if c is None else S.mul(c, powers.power(j, e))
            scales.append((k, c))
        out = []
        for i in range(self.n_gens()):
            image = None
            for k, c in scales:
                term = entry(i, k) if c is None else entry(i, k).scale(c)
                image = term if image is None else image + term
            out.append(image)
        return out


def hull_generators(ext: ExtensionDesc, t_horizon: int, w_horizon: int,
                    word_bound: int = DEFAULT_WORD_BOUND, span_degree: int = 2) -> HullData:
    """Generators of the hull and their derivative closure.

    Every divided derivative of an expanded generator is tested for
    membership in the span of monomials (degree <= span_degree) in the
    already-accepted generators with coefficients in L, the embedded copy
    rho0(L); derivatives outside the span are appended as new generators,
    adding their new monomials (v times those of degree < span_degree) to
    the span.  The report states whether this closure stabilized within the
    horizon, and the bounds it rests on (word_bound is 0 for the trivial
    monoid, whose only word is the unit)."""
    L = ext.L
    theta_u = make_basis_derivation(ext, w_horizon)
    algebra = ExpansionAlgebra(ext.action, theta_u, t_horizon, w_horizon, word_bound)

    rho_gens = [(f"rho({name})", algebra.expand_rho(g)) for name, g in zip(L.vars, L.gens())]

    table: dict = {}
    for i, (_, joint) in enumerate(rho_gens):
        for k in multi_indices(theta_u.n, w_horizon):
            table[(i, tuple(k))] = algebra.w_slice(joint, k)

    accepted: list[HomElement] = [table[(i, (0,) * theta_u.n)] for i in range(len(rho_gens))]
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
                    for m in _hom_monomials(accepted, span_degree - 1) if span_degree else ():
                        span.add(_hom_coordinates(m * v))
                    new_gens.append(((i, tuple(k)), v))
                    added_this_order = True
        if added_this_order:
            stabilized_at = order
    if stabilized_at >= w_horizon:
        failures.append(
            f"derivative closure still growing at order {w_horizon}; "
            f"raise the horizon to certify stabilization"
        )
    closure = Report(not failures, len(table), failures,
                     {"t_horizon": t_horizon, "w_horizon": w_horizon,
                      "word_bound": rho_gens[0][1].word_bound, "span_degree": span_degree,
                      "stabilized_at": stabilized_at,
                      "extra_gens": [str(k) for k, _ in new_gens]})
    return HullData(ext, algebra, rho_gens, table, closure)


def _hom_coordinates(v: HomElement) -> dict:
    out = {}
    for word, s in v.data.items():
        for e, c in s.terms.items():
            out[(word, e)] = c
    return out


def _monomial_span(gens: list[HomElement], L, span_degree: int) -> Echelon:
    """Echelon of the L-span of the monomials of bounded degree in gens, over
    the coordinates of _hom_coordinates."""
    return Echelon(L, (_hom_coordinates(m) for m in _hom_monomials(gens, span_degree)))


def _hom_monomials(gens: list[HomElement], degree: int) -> list[HomElement]:
    if not gens:
        return []
    return distinct_products(
        gens, gens[0].one(), degree,
        lambda m: frozenset((k, element_key(c)) for k, c in _hom_coordinates(m).items()))


def element_key(c):
    """A hashable key of an element of a FracField (a Frac) or of an
    AlgebraicField (a tuple of them): equal keys for equal elements, and no
    printing of polynomials."""
    return tuple(x.key() for x in c) if isinstance(c, tuple) else c.key()


def distinct_products(gens: list, one, degree: int, key) -> list:
    """The distinct values among the products of at most degree factors from
    gens (key(value) tells values apart), each at its first occurrence in the
    order of the words: by length, then lexicographically.  Multiplication
    is commutative, so that first word is sorted: one product is formed per
    sorted index tuple, from the product of its prefix."""
    out = [one]
    seen = {key(one)}
    layer = [(0, one)]  # (index of the last factor, product)
    for _ in range(degree):
        layer = [(i, p * gens[i]) for start, p in layer for i in range(start, len(gens))]
        for _, p in layer:
            kp = key(p)
            if kp not in seen:
                seen.add(kp)
                out.append(p)
    return out


# -------------------------------------------------------------- relations


def find_relations(hull: HullData, diff_order: int, degree: int,
                   max_monomials: int = 4000) -> list[DiffPoly]:
    """Linear relations over L among bounded monomials in the derivatives of
    the expanded generators, echelonized and pruned of consequences of
    lower-degree relations.  Completeness holds only relative to the stated
    bounds; each returned polynomial vanishes identically on the generators.

    The monomials are the columns of one elimination, in a graded order that
    is lexicographic on sorted symbol tuples within a degree (reverse lex on
    exponent vectors), so it is multiplicative: a < b implies a*m < b*m.  A
    relation is the kernel vector of a dependent column j, whose highest
    column is j itself; so the highest column of a consequence rel*shift is
    lead(rel)*shift, and vectors with distinct highest columns are
    independent.  All these vectors lie in the kernel on the columns of
    degree <= d, whose dimension is the number of dependent ones.

    At each degree d, if the relations and their consequences of degree
    <= d have that many distinct highest columns, they span that kernel and
    no kernel vector of degree d is new: the degree is certified with no
    arithmetic.  Otherwise the consequences, then the kernel vectors of the
    dependent columns of degree d, go into one span, and a kernel vector
    outside it is a new relation; the search at d stops, exactly, once the
    span has the kernel's rank.  Before that, the span gets the kernel
    vectors of the certified degrees' dependent columns, which are
    independent of it and complete it to the kernel below d.  A monomial
    with a factor whose derivative is zero is a zero column, formed with no
    product.  Each relation is checked by solve_points' zero test,
    relation_vanishes after cleared, or ArithmeticError is raised.
    """
    L = hull.ext.L
    table = hull.derivative_table
    nvars = hull.algebra.theta_u.n
    nstreams = hull.n_gens()
    symbols = [(i, tuple(k)) for i in range(nstreams) for k in multi_indices(nvars, diff_order)]
    monomials_by_degree = _graded_monomials(symbols, degree)
    total = sum(len(lv) for lv in monomials_by_degree)
    if total > max_monomials:
        raise ValueError(f"relation search space too large ({total} monomials, above "
                         f"max_monomials={max_monomials}); raise max_monomials or lower "
                         f"diff_order or degree")
    zero = {s for s in symbols if table[s].is_zero()}

    def value(mono: tuple) -> HomElement:
        v = None
        for sym in mono:
            if sym in zero:
                return table[sym]
            v = table[sym] if v is None else v * table[sym]
        return table[symbols[0]].one() if v is None else v

    all_monos = [m for level in monomials_by_degree for m in level]
    column = {m: j for j, m in enumerate(all_monos)}
    # a monomial lists its symbols in the order of symbols
    position = {s: j for j, s in enumerate(symbols)}.__getitem__

    def times(m: tuple, shift: tuple) -> int:
        return column[tuple(sorted(m + shift, key=position))]

    values = [value(m) for m in all_monos]
    # one elimination of the monomial columns: the relations of its
    # dependent columns of degree d are the new kernel vectors at degree d
    monomials = Echelon(L, (_hom_coordinates(v) for v in values))
    relations: list[dict] = []  # monomial multiset -> coefficient in L, lead last
    leads: set[int] = set()  # the highest columns of the relations and consequences
    span = Echelon(L)  # the consequences: relations times monomials
    unseeded: list[int] = []  # dependent columns of certified degrees
    kernel_rank = 0  # of the kernel on the columns of degree <= d
    for d in range(0, degree + 1):
        candidates = [j for j in monomials.dependent if len(all_monos[j]) == d]
        kernel_rank += len(candidates)
        for rel in relations:
            lead = next(reversed(rel))
            leads.update(times(lead, shift) for shift in monomials_by_degree[d - len(lead)])
        if len(leads) == kernel_rank:
            unseeded += candidates
            continue
        for j in unseeded:
            span.add(monomials.relation(j))
        unseeded = []
        for rel in relations:
            for shift in monomials_by_degree[d - len(next(reversed(rel)))]:
                if len(span.steps) == kernel_rank:
                    break
                span.add({times(m, shift): c for m, c in rel.items()})
        for j in candidates:
            if len(span.steps) == kernel_rank:
                break
            if span.add(vec := monomials.relation(j)):
                relations.append({all_monos[i]: c for i, c in vec.items()})
                leads.add(j)
    for rel in relations:
        if not relation_vanishes((values[column[m]], c) for m, c in cleared(rel.items())):
            raise ArithmeticError("relation does not vanish on the hull generators")
    return [_relation_to_diffpoly(rel, hull, nstreams) for rel in relations]


def cleared(terms) -> list:
    """The terms (key, c) of a relation with coefficients c in L, times the
    lcm M of their distinct nonconstant denominators: a unit multiple with
    polynomial coefficients num*(M/den), by exact division.  M is folded as
    M*(d/gcd(d, M)), the numerator of d/M in lowest terms (FracField.frac),
    so one-term denominators meet by exponent arithmetic and take no gcd."""
    dens = {c.den.key(): (c.field, c.den) for _, c in terms
            if isinstance(c, Frac) and not c.den.is_const()}
    if not dens:
        return terms
    (L, multiplier), *rest = dens.values()
    for _, d in rest:
        multiplier = multiplier * L.frac(d, multiplier).num
    return [(key, L.from_poly(c.num * multiplier.exact_div(c.den))) for key, c in terms]


def relation_vanishes(terms) -> bool:
    """Whether sum c*v over the pairs (v, c) of terms is zero coordinatewise:
    a relation's zero test, for v its monomial values and c from cleared."""
    total: dict = {}
    for v, c in terms:
        _terms.accumulate(total, ((k, v.ring.mul(x, c)) for k, x in _hom_coordinates(v).items()),
                          v.ring)
    return not total


def _graded_monomials(symbols: list, degree: int) -> list[list[tuple]]:
    """The monomials of each total degree <= degree, as sorted tuples of
    symbols (sorted by their place in symbols), lexicographic within a
    degree: the column order of find_relations."""
    levels: list[list[tuple]] = [[()]]
    for _ in range(degree):
        levels.append([m + (s,) for m in levels[-1]
                       for s in symbols[symbols.index(m[-1]) if m else 0:]])
    return levels


def _relation_to_diffpoly(rel: dict, hull: HullData, nstreams: int) -> DiffPoly:
    L, wvars, horizon = hull.ext.L, hull.algebra.wvars, hull.algebra.w_horizon
    return DiffPoly(nstreams, L, wvars, horizon,
                    {tuple(sorted((s, mono.count(s)) for s in set(mono))):
                     TruncSeries.const(L, wvars, horizon, c)
                     for mono, c in rel.items()})


__all__ = [
    "ExtensionDesc",
    "HullData",
    "cleared",
    "distinct_products",
    "element_key",
    "find_relations",
    "hull_generators",
    "make_basis_derivation",
    "relation_vanishes",
    "variable_basis_derivation",
]
