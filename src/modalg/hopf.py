"""The Picard-Vessiot axioms and the Hopf algebra of constants.

The input is a pv.PVData: a fundamental matrix X over a principal ring R
inside a total quotient field L, with one bialgebra action governing
everything.  verify checks that constants match, that every operator moves
X by a matrix over the base, that the constants of the doubled ring R (x) R
generate it over R, and that the monoid part acts injectively.  The
constants of the doubled ring carry a Hopf structure (counit from
multiplication, comultiplication from splitting the two slots over the
middle, antipode from the flip), which hopf_algebra presents by generators,
relations and structure maps, checking the bialgebra axioms on the
generators; check_mu_bijectivity checks that R tensor the constants is the
doubled ring.

These are checks of the input that pv.compare never calls, so pv imports
this module only when one of its entry points of the same names is called,
and this module imports nothing from pv.
"""

from __future__ import annotations

import itertools

from .actions import ActionSpec, Report, constants, d_basis_entries, monomial_basis
from .exactalg import Echelon, GeneratorPowers, MPoly, PolyRing, evaluate, restriction_kernel
from .exactalg import terms as _terms
from .hull import distinct_products
from .lieritt import multi_indices
from .series import TruncSeries


def verify(data: PVData, degree: int, horizon: int | None = None) -> Report:
    """The Picard-Vessiot axioms at the declared bounds."""
    if horizon is None:
        horizon = max(degree, 3)
    failures = []
    checked = 0
    L, act = data.L, data.action

    # (i) constants of L at the degree bound are the scalars
    cbasis = constants(L, act, degree)
    checked += 1
    if len(cbasis) != 1:
        failures.append(f"constants of the total field have dimension {len(cbasis)}")
    if data.k.char != 0:
        # perfectness caveat: only prime constants fields are accepted here
        if len(cbasis) != 1:
            failures.append("imperfect constants field in characteristic p is not supported")

    # (ii) every operator moves X by a matrix over the base field
    Xl = data.X.map(lambda p: data.r_to_L(p), L)
    Xinv_l = data.Xinv.map(lambda p: data.r_to_L(p), L)
    for kind, payload in d_basis_entries(act, horizon):
        checked += 1
        if kind == "theta":
            dX = Xl.map(lambda f: act.theta_coefficient(f, payload))
        else:
            dX = Xl.map(lambda f: act.apply_generator(payload, f))
        prod = dX * Xinv_l
        for row in prod.rows:
            for e in row:
                if not (e.den.is_const() and e.num.is_const()):
                    failures.append(
                        f"operator {kind}{payload} moves X outside the base: entry {e}"
                    )
                    break

    # (iii) the constants of the doubled ring generate it over the left slot
    pair = _TensorPower(data.R, 2)
    hbasis = _doubled_constants(data, pair, degree, horizon)
    checked += 1
    if not _left_span_covers(data, pair, hbasis, degree):
        failures.append(
            f"constants of degree <= {degree} do not generate the doubled ring at degree "
            f"{degree}; raise degree (a generating constant may have a higher degree)"
        )

    # (iv) monoid generators act injectively at the degree bound
    if act.has_monoid():
        for g in range(len(act.monoid.gens)):
            checked += 1
            basis = monomial_basis(data.R, degree)
            cols = [[act.apply_generator(g, data.r_to_L(b))] for b in basis]
            ker = restriction_kernel(cols, L)
            if ker:
                failures.append(f"monoid generator {g} has a kernel at degree {degree}")

    return Report(not failures, checked, failures, {"degree": degree, "horizon": horizon})


class _TensorPower:
    """R tensored with itself n times over the base: the R-generators with
    slot suffixes _1 ... _n and the inverse pairs of each slot."""

    def __init__(self, R: PolyRing, n: int):
        self.R = R
        nv = R.nvars()
        self.ring = PolyRing(R.field, [f"{v}_{s}" for s in range(1, n + 1) for v in R.vars],
                             [(i + s * nv, j + s * nv) for s in range(n) for i, j in R.inverse_pairs])

    def place(self, g: MPoly, slots: tuple[int, ...]) -> MPoly:
        """The image of g under slot i -> slots[i]: g lies in the tensor
        power with len(slots) slots, an element of R counting as one slot."""
        images = [self.ring.var(f"{v}_{s}") for s in slots for v in self.R.vars]
        return g.ring.hom(g, GeneratorPowers(self.ring, dict(zip(g.ring.vars, images))),
                          self.ring.scalar)


def _doubled_action(data: PVData, pair: _TensorPower, horizon: int) -> ActionSpec:
    """The action on R (x) R through the coproduct: derivations distribute
    over the slots and monoid generators act diagonally.  The theta images
    are expanded at the horizon the constants are read at; an action that
    declares no images doubles to one that declares none."""
    act, R = data.action, data.R
    theta_images = {}
    endo_maps = []
    if act.theta_images or act.d_images:
        for name in R.vars:
            series = act.theta_series(data.r_to_L(R.var(name)), horizon)
            coeffs = {e: data.l_to_r(c) for e, c in series.terms.items()}
            for s in (1, 2):
                theta_images[f"{name}_{s}"] = TruncSeries(
                    pair.ring, act.wvars, horizon,
                    {e: pair.place(c, (s,)) for e, c in coeffs.items()})
    for g in range(len(act.monoid.gens)):
        m = {}
        for name in R.vars:
            img = data.l_to_r(act.apply_generator(g, data.r_to_L(R.var(name))))
            for s in (1, 2):
                m[f"{name}_{s}"] = pair.place(img, (s,))
        endo_maps.append(m)
    # a derivation is realized through its divided powers on the slots
    kind = "iterder" if act.kind == "der" else act.kind
    return ActionSpec(pair.ring, kind, n=act.n, theta_images=theta_images, monoid=act.monoid,
                      endo_maps=endo_maps, wvars=act.wvars)


def _doubled_constants(data: PVData, pair: _TensorPower, degree: int,
                       horizon: int) -> list[MPoly]:
    return constants(pair.ring, _doubled_action(data, pair, horizon), degree, horizon)


def _left_span_covers(data: PVData, pair: _TensorPower, hbasis: list[MPoly],
                      degree: int) -> bool:
    """Does R (left slot) times the algebra the constants generate span
    the doubled ring, on monomials of degree <= degree?

    R_{<=degree} is multiplied by the products of at most degree
    constants: a target such as yi_2^d needs d of them, as in
    yi_2^d = yi_1^d * (y_1*yi_2)^d."""
    one = pair.ring.one()
    # a basis of the products of at most `degree` constants, one factor
    # more per round; only the products new in a round can give new ones
    consts = Echelon(data.k)
    consts.add(one.terms)
    basis = layer = [one]
    for _ in range(degree):
        layer = [p * h for p in layer for h in hbasis]
        layer = [q for q in layer if consts.add(q.terms)]
        basis = basis + layer
    span = Echelon(data.k)
    for m in monomial_basis(data.R, degree):
        lm = pair.place(m, (1,))
        for q in basis:
            span.add((lm * q).terms)
    return all(span.contains(t.terms) for t in monomial_basis(pair.ring, degree))


class HopfPresentation:
    """Generators of the constants of the doubled ring with the structure
    maps evaluated on them.  A monomial in the generators is its exponent
    tuple, indexed like names.  tensor is the two-slot power R (x) R: the
    generators are elements of tensor.ring, and tensor.place(r, (1,)) puts
    an element r of R in the left slot."""

    def __init__(self, data: PVData, tensor: _TensorPower, gens: list[MPoly],
                 names: list[str], relations: list, comul: dict, counit: dict,
                 antipode: dict, report: Report):
        self.data = data
        self.tensor = tensor
        self.gens = gens
        self.names = names
        self.relations = relations
        self.comul = comul         # name -> {(monomial, monomial): scalar}
        self.counit = counit       # name -> scalar
        self.antipode = antipode   # name -> {monomial: scalar}
        self.report = report

    def _unit(self, name: str) -> tuple[int, ...]:
        return tuple(int(n == name) for n in self.names)

    def is_primitive(self, name: str) -> bool:
        c = self.comul[name]
        h, one = self._unit(name), (0,) * len(self.names)
        return set(c) == {(h, one), (one, h)} and all(
            self.data.k.eq(v, self.data.k.one()) for v in c.values()
        )

    def is_grouplike(self, name: str) -> bool:
        c = self.comul[name]
        h = self._unit(name)
        return set(c) == {(h, h)} and all(
            self.data.k.eq(v, self.data.k.one()) for v in c.values()
        )

    def as_dict(self) -> dict:
        k = self.data.k

        def label(exp):
            return _label_str(exp, self.names)

        return {
            "generators": {n: str(g) for n, g in zip(self.names, self.gens)},
            "relations": [str(r) for r in self.relations],
            "comultiplication": {
                n: " + ".join(
                    f"{k.to_str(c)}*{a}(x){b}"
                    for (a, b), c in sorted(((label(a), label(b)), c) for (a, b), c in m.items())
                )
                for n, m in self.comul.items()
            },
            "counit": {n: k.to_str(c) for n, c in self.counit.items()},
            "antipode": {
                n: " + ".join(
                    f"{k.to_str(c)}*{mono}"
                    for mono, c in sorted((label(e), c) for e, c in m.items())
                )
                for n, m in self.antipode.items()
            },
            "checks": self.report.as_dict(),
        }


def hopf_algebra(data: PVData, degree: int, horizon: int | None = None) -> HopfPresentation:
    """Constants of the doubled ring with comultiplication, counit and
    antipode computed from the splitting, multiplication and flip maps; the
    bialgebra axioms are verified on the generators to the degree bound."""
    if horizon is None:
        horizon = max(degree, 3)
    k, R = data.k, data.R
    tensor = _TensorPower(R, 2)
    ring = tensor.ring
    cbasis = _doubled_constants(data, tensor, degree, horizon)
    # generator selection: strip the unit, smallest degree first, greedy
    # reduction modulo the subalgebra generated so far
    one = ring.one()
    candidates = sorted(cbasis, key=lambda c: (c.total_degree(), str(c)))
    gens: list[MPoly] = []
    spans: dict[int, Echelon] = {}  # the products of the first n generators

    def is_new(c: MPoly) -> bool:  # outside the span of the generator products
        if len(gens) not in spans:
            products = distinct_products(gens + [one], one, degree, str)
            spans[len(gens)] = _span_block(ring, products, k)
        return not spans[len(gens)].contains(_scalar_column(ring, c, k))

    for c in candidates:
        if not c.is_const() and is_new(c):
            gens.append(_normalize_gen(ring, c))
    # the flip of a constant is constant: close the generator set under the
    # flip so inverses of grouplikes are present
    for g in list(gens):
        fg = tensor.place(g, (2, 1))
        if is_new(fg):
            gens.append(_normalize_gen(ring, fg))
    names = [f"h{i+1}" if len(gens) > 1 else "h" for i in range(len(gens))]
    relations = _hopf_relations(ring, gens, k, degree + 1)

    counit = {}
    comul = {}
    antipode = {}
    failures = []
    checked = 0
    if not gens:
        failures.append(f"the doubled ring has no nonscalar constant of degree <= {degree}; "
                        f"raise degree")
    # comultiplication splits the slots over the middle, a (x) b -> a (x) 1
    # (x) b, and is read off in the products of generator monomials placed
    # in slots (1,2) and (2,3); the antipode is the flip, read off in the
    # generator monomials
    labels = multi_indices(len(gens), degree)
    mono_vals = [_monomial(ring, gens, e) for e in labels]
    triple = _TensorPower(R, 3)
    pair_labels = list(itertools.product(labels, labels))
    left = [triple.place(a, (1, 2)) for a in mono_vals]
    right = [triple.place(b, (2, 3)) for b in mono_vals]
    pair_vals = [a * b for a, b in itertools.product(left, right)]
    # each block is the same for every generator: eliminate it once
    pair_block = _span_block(triple.ring, pair_vals, k)
    mono_block = _span_block(ring, mono_vals, k)
    # the multiplication map to R
    merge = GeneratorPowers(R, dict(zip(ring.vars, [R.var(v) for v in R.vars] * 2)))
    eps = []  # the counit of each generator, None when it is not a scalar
    for name, g in zip(names, gens):
        mg = ring.hom(g, merge, R.scalar)
        checked += 1
        if not (mg.is_const()):
            failures.append(f"counit of {name} is not a scalar: {mg}")
            counit[name] = k.zero()
            eps.append(None)
        else:
            counit[name] = mg.const_coeff()
            eps.append(counit[name])
        comul[name] = _expand(triple.ring, triple.place(g, (1, 3)), pair_block, pair_labels, k,
                              "comultiplication", failures)
        antipode[name] = _expand(ring, tensor.place(g, (2, 1)), mono_block, labels, k,
                                 "antipode", failures)

    rep_axioms = _check_hopf_axioms(tensor, gens, names, comul, counit, eps, antipode, degree)
    checked += rep_axioms.checked
    failures.extend(rep_axioms.failures)
    report = Report(not failures, checked, failures, {"degree": degree, "horizon": horizon})
    return HopfPresentation(data, tensor, gens, names, relations, comul, counit,
                            antipode, report)


def _normalize_gen(ring: PolyRing, g: MPoly) -> MPoly:
    _, lc = g.leading()
    return g.scale(ring.field.inv(lc))


def _monomial(ring: PolyRing, gens: list[MPoly], exp: tuple[int, ...]) -> MPoly:
    """The generator monomial prod gens[i]^exp[i]."""
    return evaluate(((exp, ring.field.one()),), gens, ring, ring.scalar)


def _hopf_relations(ring: PolyRing, gens: list[MPoly], k, degree: int) -> list[str]:
    """Linear relations over k among the generator monomials of degree <=
    degree, taken degree by degree; a relation is kept only when it is not a
    combination of monomial multiples of the earlier ones (the rule of
    hull.find_relations)."""
    labels = multi_indices(len(gens), degree)  # by total degree
    _, coords = ring.scalar_coordinates([_monomial(ring, gens, e) for e in labels])
    monomials = Echelon(k, coords)
    column = {e: j for j, e in enumerate(labels)}
    relations: list[dict] = []
    span = Echelon(k)  # the monomial multiples of the relations found so far
    for d in range(degree + 1):
        for rel in relations:
            room = d - max(sum(e) for e in rel)
            for shift in labels:
                if sum(shift) == room:
                    span.add({column[_terms.add_keys(e, shift)]: c for e, c in rel.items()})
        for j in monomials.dependent:
            if sum(labels[j]) == d and span.add(vec := monomials.relation(j)):
                relations.append({labels[i]: c for i, c in vec.items()})
    return [_relation_str(r, k) for r in relations]


def _relation_str(terms: dict, k) -> str:
    parts = []
    for exps, c in sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        mono = _terms.power_str([f"h{i+1}" for i in range(len(exps))], exps) or "1"
        parts.append(f"{k.to_str(c)}*{mono}")
    return " + ".join(parts) + " = 0"


def _scalar_column(ring: PolyRing, elem: MPoly, k) -> dict:
    """The scalar coordinates of elem as a sparse column {label: nonzero
    scalar}; labels name a monomial and a scalar coordinate, so they agree
    between elements."""
    labels, (row,) = ring.scalar_coordinates([elem])
    return {lab: x for lab, x in zip(labels, row) if not k.is_zero(x)}


def _span_block(ring: PolyRing, span: list[MPoly], k) -> Echelon:
    """The elimination of the scalar columns of span over k."""
    return Echelon(k, (_scalar_column(ring, v, k) for v in span))


def _expand(ring: PolyRing, target: MPoly, block: Echelon, labels: list, k, what: str,
            failures: list) -> dict:
    """target as {label: coefficient} over the elements that block has
    eliminated, with those labels; {} with a failure naming the map when
    target is outside their span."""
    sol = block.solve(_scalar_column(ring, target, k))
    if sol is None:
        failures.append(f"{what} image is not expressible at this degree")
        return {}
    return {key: x for key, x in zip(labels, sol) if not k.is_zero(x)}


def _label_str(exps: tuple, names: list[str]) -> str:
    return _terms.power_str(names, exps) or "1"


def _check_hopf_axioms(tensor: _TensorPower, gens, names, comul, counit, eps, antipode,
                       degree: int) -> Report:
    """Counit law, coassociativity, and the antipode law on the generators,
    all evaluated inside the slotted rings.  The counit, antipode and
    comultiplication of a monomial are the algebra maps evaluated on it;
    eps lists the counit of each generator, None when it is not a scalar."""
    k = tensor.R.field
    ring = tensor.ring
    failures = []
    checked = 0

    def tensor_sum(name, left, right, target):
        # sum of c * mono(la)(left) * mono(lb)(right) over the comultiplication
        return evaluate(((la + lb, c) for (la, lb), c in comul[name].items()),
                        left + right, target, target.scalar)

    s_images = [evaluate(antipode[n].items(), gens, ring, ring.scalar) for n in names]
    # coassociativity in four slots: the comultiplication of each generator
    # placed over (1,2),(2,3) and over (2,3),(3,4); (lc, ld) -> mono(lc)_12 *
    # mono(ld)_23 is an algebra map, so a monomial's comultiplication placed
    # there is the monomial evaluated on these images
    quad = _TensorPower(tensor.R, 4)
    at_slots = {s: [quad.place(g, s) for g in gens] for s in ((1, 2), (2, 3), (3, 4))}
    low = [tensor_sum(n, at_slots[(1, 2)], at_slots[(2, 3)], quad.ring) for n in names]
    high = [tensor_sum(n, at_slots[(2, 3)], at_slots[(3, 4)], quad.ring) for n in names]

    for name, g in zip(names, gens):
        # (counit x id) comul = id
        checked += 1
        acc = ring.zero()
        for (la, lb), c in comul[name].items():
            if any(e and eps[i] is None for i, e in enumerate(la)):
                failures.append(f"counit law: {_label_str(la, names)} has no scalar counit")
                continue
            eps_a = evaluate(((la, k.one()),), eps, k, lambda x: x)
            acc = acc + _monomial(ring, gens, lb).scale(k.mul(c, eps_a))
        if not acc == g:
            failures.append(f"counit law fails on {name}")

        # antipode law: m (S x id) comul = unit counit
        checked += 1
        if not tensor_sum(name, s_images, gens, ring) == ring.one().scale(counit[name]):
            failures.append(f"antipode law fails on {name}")

        # coassociativity: (comul x id) comul = (id x comul) comul
        checked += 1
        if not (tensor_sum(name, low, at_slots[(3, 4)], quad.ring)
                == tensor_sum(name, at_slots[(1, 2)], high, quad.ring)):
            failures.append(f"coassociativity fails on {name}")
    return Report(not failures, checked, failures, {"degree": degree})


def check_mu_bijectivity(data: PVData, presentation: HopfPresentation, degree: int) -> Report:
    """The multiplication map from R tensor the constants onto the doubled
    ring: monomials r (x) h map to independent elements whose span contains
    every doubled monomial within the degree window."""
    tensor = presentation.tensor
    failures = []
    r_monos = monomial_basis(data.R, 2 * degree)
    h_monos = distinct_products(presentation.gens, tensor.ring.one(), degree, str)
    images = [tensor.place(r, (1,)) * h for r in r_monos for h in h_monos]
    span = Echelon(data.k)
    # the images are independent exactly when each one adds to the span
    if not all([span.add(img.terms) for img in images]):
        failures.append("monomial images are linearly dependent")
    targets = monomial_basis(tensor.ring, degree)
    for t in targets:
        if not span.contains(t.terms):
            failures.append(f"doubled monomial {t} is outside the image span")
            break
    return Report(not failures, len(images) + len(targets), failures, {"degree": degree})
