"""Picard-Vessiot data: axioms, the coalgebra of constants, formal
automorphism groups, and the comparison with the infinitesimal theory.

The input declares a fundamental matrix X over a principal ring R inside a
total quotient field L, with one bialgebra action governing everything.  The
verification checks that constants match, that every operator moves X by a
matrix over the base, that the constants of the doubled ring generate it
over R, and that the monoid part acts injectively.  The constants of the
doubled ring carry a Hopf structure (counit from multiplication,
comultiplication from splitting the two slots over the middle, antipode from
the flip); its points over nilpotent test algebras form the formal group
that the comparison matches against the infinitesimal automorphism group of
the hull.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .actions import ActionSpec, MonoidDesc, Report, constants
from .exactalg import (
    Frac,
    FracField,
    Matrix,
    MPoly,
    PolyRing,
    kernel_basis,
    restriction_kernel,
    rref,
    solve_linear,
)
from .hull import HullData
from .lieritt import NilAlgebra, multi_indices
from .series import TruncSeries
from .taylor import JointElement
from .umemura import UmemuraReport, solve_points


class PVData:
    """A declared Picard-Vessiot extension at desk scale.

    L is the total quotient field with the action; R is the principal ring,
    presented as a polynomial context over the constants field (inverse
    pairs model the Laurent generators); X is the fundamental matrix with
    entries in R, and gen_in_X locates each R-generator inside X or its
    inverse so automorphisms can be read off matrix transformations.
    """

    def __init__(self, L: FracField, action: ActionSpec, R: PolyRing, X: Matrix,
                 gen_in_X: dict, name: str = ""):
        self.L = L
        self.action = action
        self.R = R
        self.X = X
        self.Xinv = X.inverse()
        self.gen_in_X = dict(gen_in_X)
        self.name = name
        self.k = L.scalars
        if R.field != L.scalars:
            raise ValueError("principal ring must be presented over the constants field")

    # R-polynomials viewed inside L
    def r_to_L(self, p: MPoly) -> Frac:
        inv_of = {}
        for i, j in self.R.inverse_pairs:
            inv_of[self.R.vars[i]] = self.R.vars[j]
            inv_of[self.R.vars[j]] = self.R.vars[i]
        out = self.L.zero()
        for exp, c in p.sorted_terms():
            t = self.L.const(c)
            for i, e in enumerate(exp):
                name = self.R.vars[i]
                if name in self.L.vars:
                    t = t * self.L.var(name) ** e
                else:
                    base = inv_of.get(name)
                    if base is None or base not in self.L.vars:
                        raise ValueError(f"generator {name} has no location in L")
                    t = t * self.L.var(base) ** (-e)
            out = out + t
        return out

    def l_to_r(self, f: Frac) -> MPoly:
        """Rewrite an L-element with monomial denominator as a Laurent
        R-polynomial; fails when the element does not lie in R."""
        den = f.den
        if len(den.terms) != 1:
            raise ValueError(f"{f} is not visibly in the principal ring")
        (dexp, dc), = den.terms.items()
        inv_name = {}
        for i, j in self.R.inverse_pairs:
            inv_name[self.R.vars[i]] = self.R.vars[j]
            inv_name[self.R.vars[j]] = self.R.vars[i]
        out = self.R.zero()
        dinv = self.k.inv(dc)
        for exp, c in f.num.sorted_terms():
            terms = {(0,) * self.R.nvars(): self.k.mul(c, dinv)}
            t = MPoly(self.R, terms)
            for i, e in enumerate(exp):
                name = f.field.vars[i]
                net = e - dexp[i]
                if net >= 0:
                    t = t * self.R.var(name) ** net
                else:
                    partner = inv_name.get(name)
                    if partner is None:
                        raise ValueError(f"{f} is not in the principal ring")
                    t = t * self.R.var(partner) ** (-net)
            out = out + t
        return out


def _d_basis_entries(action: ActionSpec, horizon: int) -> list[tuple]:
    """Representative operators: derivation orders and monoid generators."""
    out = []
    if action.has_theta():
        n = max(action.n, 1)
        for k in multi_indices(n, horizon):
            if any(k):
                out.append(("theta", tuple(k)))
    if action.has_monoid():
        for g in range(len(action.monoid.gens)):
            out.append(("endo", g))
    return out


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
    for kind, payload in _d_basis_entries(act, horizon):
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
    tensor = TensorRing(data)
    hbasis = tensor.constant_basis(degree, horizon)
    checked += 1
    if not tensor.left_span_covers(hbasis, degree):
        failures.append("constants do not generate the doubled ring at this degree")

    # (iv) monoid generators act injectively at the degree bound
    if act.has_monoid():
        for g in range(len(act.monoid.gens)):
            checked += 1
            basis = _laurent_monomials(data.R, degree)
            cols = [[act.apply_generator(g, data.r_to_L(b))] for b in basis]
            ker = restriction_kernel(cols, L, data.k)
            if ker:
                failures.append(f"monoid generator {g} has a kernel at degree {degree}")

    return Report(not failures, checked, failures, {"degree": degree, "horizon": horizon})


def _laurent_monomials(R: PolyRing, degree: int) -> list[MPoly]:
    out = []
    seen = set()
    for exp in multi_indices(R.nvars(), degree):
        m = R.poly({tuple(exp): R.field.one()})
        key = str(m)
        if key not in seen:
            seen.add(key)
            out.append(m)
    return out


class TensorRing:
    """R tensor R over the base, with the doubled action.

    Variables are the R-generators with slot suffixes _1 and _2; the action
    doubles through the coproduct: derivations distribute over the slots and
    monoid generators act diagonally."""

    def __init__(self, data: PVData):
        self.data = data
        R = data.R
        vars2 = [f"{v}_1" for v in R.vars] + [f"{v}_2" for v in R.vars]
        pairs = []
        nv = R.nvars()
        for i, j in R.inverse_pairs:
            pairs.append((i, j))
            pairs.append((i + nv, j + nv))
        self.ring = PolyRing(R.field, vars2, pairs)
        self.nslots = 2
        self._action = self._doubled_action(self.ring, 2)

    def _slot_var(self, ring, name: str, slot: int):
        return ring.var(f"{name}_{slot}")

    def _embed_poly(self, ring, p: MPoly, slot: int) -> MPoly:
        R = self.data.R
        out = ring.zero()
        for exp, c in p.sorted_terms():
            t = ring.const(c)
            for i, e in enumerate(exp):
                t = t * self._slot_var(ring, R.vars[i], slot) ** e
            out = out + t
        return out

    def embed(self, p: MPoly, slot: int) -> MPoly:
        return self._embed_poly(self.ring, p, slot)

    def _doubled_action(self, ring, nslots: int) -> ActionSpec:
        data = self.data
        act = data.action
        theta_images = {}
        endo_maps = None
        if act.has_theta():
            wvars = act.wvars
            for name in data.R.vars:
                img_L = act.theta_series(data.r_to_L(data.R.var(name)), 8)
                for slot in range(1, nslots + 1):
                    terms = {}
                    for e, c in img_L.terms.items():
                        terms[e] = self._embed_poly(ring, data.l_to_r(c), slot)
                    theta_images[f"{name}_{slot}"] = TruncSeries(ring, wvars, 8, terms)
        if act.has_monoid():
            endo_maps = []
            for g in range(len(act.monoid.gens)):
                m = {}
                for name in data.R.vars:
                    img_L = act.apply_generator(g, data.r_to_L(data.R.var(name)))
                    for slot in range(1, nslots + 1):
                        m[f"{name}_{slot}"] = self._embed_poly(
                            ring, data.l_to_r(img_L), slot)
                endo_maps.append(m)
        kind = act.kind if act.kind != "der" else "iterder"
        n = act.n if act.has_theta() else 0
        if act.kind == "der":
            # realize the derivation through its divided powers on the slots
            kind = "iterder"
            n = 1
        monoid = act.monoid if act.has_monoid() else None
        return ActionSpec(ring, kind if kind != "trivial" else "trivial", n=n,
                          theta_images=theta_images, monoid=monoid,
                          endo_maps=endo_maps or [],
                          wvars=act.wvars if act.has_theta() else None)

    def constant_basis(self, degree: int, horizon: int) -> list[MPoly]:
        return constants(self.ring, self._action, degree, horizon)

    def left_span_covers(self, hbasis: list[MPoly], degree: int) -> bool:
        """Does R (left slot) times the constants span the doubled ring?"""
        R = self.data.R
        left = [self.embed(m, 1) for m in _laurent_monomials(R, degree)]
        products = []
        for lm in left:
            for h in hbasis + [self.ring.one()]:
                products.append(lm * h)
        targets = _laurent_monomials(self.ring, degree)
        labels, rows = self.ring.scalar_coordinates(products + targets)
        k = self.data.k
        nprod = len(products)
        for t_idx in range(len(targets)):
            rhs = rows[nprod + t_idx]
            cols = [[rows[j][i] for j in range(nprod)] for i in range(len(labels))]
            if solve_linear(cols, rhs, k) is None:
                return False
        return True


class HopfPresentation:
    """Generators of the constants of the doubled ring with the structure
    maps evaluated on them."""

    def __init__(self, data: PVData, tensor: TensorRing, gens: list[MPoly],
                 names: list[str], relations: list, comul: dict, counit: dict,
                 antipode: dict, report: Report):
        self.data = data
        self.tensor = tensor
        self.gens = gens
        self.names = names
        self.relations = relations
        self.comul = comul         # name -> {(name_or_1, name_or_1): scalar}
        self.counit = counit       # name -> scalar
        self.antipode = antipode   # name -> {monomial in names: scalar}
        self.report = report

    def is_primitive(self, name: str) -> bool:
        c = self.comul[name]
        return set(c) == {(name, "1"), ("1", name)} and all(
            self.data.k.eq(v, self.data.k.one()) for v in c.values()
        )

    def is_grouplike(self, name: str) -> bool:
        c = self.comul[name]
        return set(c) == {(name, name)} and all(
            self.data.k.eq(v, self.data.k.one()) for v in c.values()
        )

    def as_dict(self) -> dict:
        return {
            "generators": {n: str(g) for n, g in zip(self.names, self.gens)},
            "relations": [str(r) for r in self.relations],
            "comultiplication": {
                n: " + ".join(
                    f"{self.data.k.to_str(c)}*{a}(x){b}" for (a, b), c in sorted(m.items())
                )
                for n, m in self.comul.items()
            },
            "counit": {n: self.data.k.to_str(c) for n, c in self.counit.items()},
            "antipode": {
                n: " + ".join(
                    f"{self.data.k.to_str(c)}*{mono}" for mono, c in sorted(m.items())
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
    k = data.k
    tensor = TensorRing(data)
    cbasis = tensor.constant_basis(degree, horizon)
    # generator selection: strip the unit, smallest degree first, greedy
    # reduction modulo the subalgebra generated so far
    one = tensor.ring.one()
    candidates = sorted(
        (c for c in cbasis),
        key=lambda c: (c.total_degree(), str(c)),
    )
    gens: list[MPoly] = []
    for c in candidates:
        if c.is_const():
            continue
        span = _monomials_in(tensor.ring, gens + [one], degree)
        if not _in_k_span(tensor.ring, c, span, k):
            gens.append(_normalize_gen(tensor.ring, c))
    # the flip of a constant is constant: close the generator set under the
    # flip so inverses of grouplikes are present
    for g in list(gens):
        fg = _flip(tensor, g)
        span = _monomials_in(tensor.ring, gens + [one], degree)
        if not _in_k_span(tensor.ring, fg, span, k):
            gens.append(_normalize_gen(tensor.ring, fg))
    names = [f"h{i+1}" if len(gens) > 1 else "h" for i in range(len(gens))]

    # relations among generator monomials
    relations = []
    span, labels = _monomial_values(tensor.ring, gens, names, degree + 1)
    _, rows = tensor.ring.scalar_coordinates(span)
    cols = [[rows[j][i] for j in range(len(span))] for i in range(len(rows[0]))] if span else []
    ker = kernel_basis(cols, k, ncols=len(span)) if span else []
    for vec in ker:
        terms = {labels[i]: c for i, c in enumerate(vec) if not k.is_zero(c)}
        relations.append(_relation_str(terms, k))

    counit = {}
    comul = {}
    antipode = {}
    failures = []
    checked = 0
    for name, g in zip(names, gens):
        mg = _merge_slots(tensor, g)
        checked += 1
        if not (mg.is_const()):
            failures.append(f"counit of {name} is not a scalar: {mg}")
            counit[name] = k.zero()
        else:
            counit[name] = mg.const_coeff()
        comul[name] = _comultiplication(tensor, gens, names, g, degree, failures)
        antipode[name] = _antipode(tensor, gens, names, g, degree, failures)

    rep_axioms = _check_hopf_axioms(tensor, gens, names, comul, counit, antipode, degree)
    checked += rep_axioms.checked
    failures.extend(rep_axioms.failures)
    report = Report(not failures, checked, failures, {"degree": degree, "horizon": horizon})
    return HopfPresentation(data, tensor, gens, names, relations, comul, counit,
                            antipode, report)


def _normalize_gen(ring: PolyRing, g: MPoly) -> MPoly:
    _, lc = g.leading()
    return g.scale(ring.field.inv(lc))


def _flip(tensor: TensorRing, g: MPoly) -> MPoly:
    R = tensor.data.R
    images = {}
    for v in R.vars:
        images[f"{v}_1"] = tensor.ring.var(f"{v}_2")
        images[f"{v}_2"] = tensor.ring.var(f"{v}_1")
    return g.subs(images)


def _merge_slots(tensor: TensorRing, g: MPoly) -> MPoly:
    """Multiplication map to the single-slot ring: v_1, v_2 -> v."""
    R = tensor.data.R
    out = R.zero()
    nv = R.nvars()
    for exp, c in g.sorted_terms():
        e1 = exp[:nv]
        e2 = exp[nv:]
        merged = tuple(a + b for a, b in zip(e1, e2))
        out = out + R.poly({merged: c})
    return out


def _monomials_in(ring: PolyRing, gens: list[MPoly], degree: int) -> list[MPoly]:
    out = [ring.one()]
    frontier = [ring.one()]
    for _ in range(degree):
        nxt = []
        for f in frontier:
            for g in gens:
                p = f * g
                nxt.append(p)
        frontier = nxt
        out.extend(frontier)
    seen = set()
    uniq = []
    for m in out:
        key = str(m)
        if key not in seen:
            seen.add(key)
            uniq.append(m)
    return uniq


def _monomial_values(ring: PolyRing, gens: list[MPoly], names: list[str], degree: int):
    values = []
    labels = []
    for exps in multi_indices(len(gens), degree):
        m = ring.one()
        for g, e in zip(gens, exps):
            m = m * g ** e
        values.append(m)
        labels.append(tuple(exps))
    return values, labels


def _relation_str(terms: dict, k) -> str:
    parts = []
    for exps, c in sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        mono = "*".join(
            (f"h{i+1}" + (f"^{e}" if e > 1 else "")) for i, e in enumerate(exps) if e
        ) or "1"
        parts.append(f"{k.to_str(c)}*{mono}")
    return " + ".join(parts) + " = 0"


def _in_k_span(ring: PolyRing, target: MPoly, span: list[MPoly], k) -> bool:
    labels, rows = ring.scalar_coordinates(span + [target])
    cols = [[rows[j][i] for j in range(len(span))] for i in range(len(labels))]
    rhs = [rows[len(span)][i] for i in range(len(labels))]
    return solve_linear(cols, rhs, k) is not None


class _TripleRing:
    """Three slots for coassociativity and comultiplication computations."""

    def __init__(self, tensor: TensorRing, nslots: int = 3):
        R = tensor.data.R
        self.base = tensor
        self.nslots = nslots
        vars_ = []
        pairs = []
        nv = R.nvars()
        for s in range(1, nslots + 1):
            vars_.extend(f"{v}_{s}" for v in R.vars)
        for s in range(nslots):
            for i, j in R.inverse_pairs:
                pairs.append((i + s * nv, j + s * nv))
        self.ring = PolyRing(R.field, vars_, pairs)

    def embed_pair(self, g: MPoly, slot_a: int, slot_b: int) -> MPoly:
        """Image of a two-slot element under slots (1,2) -> (slot_a, slot_b)."""
        R = self.base.data.R
        images = {}
        for v in R.vars:
            images[f"{v}_1"] = self.ring.var(f"{v}_{slot_a}")
            images[f"{v}_2"] = self.ring.var(f"{v}_{slot_b}")
        out = self.ring.zero()
        for exp, c in g.sorted_terms():
            t = self.ring.const(c)
            for i, e in enumerate(exp):
                name = self.base.ring.vars[i]
                base_name, slot = name.rsplit("_", 1)
                tgt = slot_a if slot == "1" else slot_b
                t = t * self.ring.var(f"{base_name}_{tgt}") ** e
            out = out + t
        return out


def _comultiplication(tensor: TensorRing, gens, names, g: MPoly, degree: int,
                      failures: list) -> dict:
    """Split the slots over the middle: a (x) b -> a (x) 1 (x) b, then express
    in products of generator monomials placed in slots (1,2) and (2,3)."""
    k = tensor.data.k
    triple = _TripleRing(tensor)
    R = tensor.data.R
    # a (x) b -> a in slot 1, b in slot 3
    split = triple.embed_pair(g, 1, 3)
    mono_vals, labels = _monomial_values(tensor.ring, gens, names, degree)
    cols = []
    col_labels = []
    for i, (va, la) in enumerate(zip(mono_vals, labels)):
        for j, (vb, lb) in enumerate(zip(mono_vals, labels)):
            prod = triple.embed_pair(va, 1, 2) * triple.embed_pair(vb, 2, 3)
            cols.append(prod)
            col_labels.append((la, lb))
    lab, rows = triple.ring.scalar_coordinates(cols + [split])
    mat = [[rows[j][i] for j in range(len(cols))] for i in range(len(lab))]
    rhs = [rows[len(cols)][i] for i in range(len(lab))]
    sol = solve_linear(mat, rhs, k)
    if sol is None:
        failures.append("comultiplication image is not expressible at this degree")
        return {}
    out = {}
    for (la, lb), c in zip(col_labels, sol):
        if k.is_zero(c):
            continue
        out[(_label_str(la, names), _label_str(lb, names))] = c
    return out


def _label_str(exps: tuple, names: list[str]) -> str:
    parts = [f"{names[i]}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
    return "*".join(parts) if parts else "1"


def _antipode(tensor: TensorRing, gens, names, g: MPoly, degree: int,
              failures: list) -> dict:
    k = tensor.data.k
    fg = _flip(tensor, g)
    mono_vals, labels = _monomial_values(tensor.ring, gens, names, degree)
    lab, rows = tensor.ring.scalar_coordinates(mono_vals + [fg])
    mat = [[rows[j][i] for j in range(len(mono_vals))] for i in range(len(lab))]
    rhs = [rows[len(mono_vals)][i] for i in range(len(lab))]
    sol = solve_linear(mat, rhs, k)
    if sol is None:
        failures.append("antipode image is not expressible at this degree")
        return {}
    return {
        _label_str(labels[i], names): c for i, c in enumerate(sol) if not k.is_zero(c)
    }


def _check_hopf_axioms(tensor: TensorRing, gens, names, comul, counit, antipode,
                       degree: int) -> Report:
    """Counit law, coassociativity, and the antipode law on the generators,
    all evaluated inside the slotted rings."""
    k = tensor.data.k
    failures = []
    checked = 0
    name_to_gen = dict(zip(names, gens))

    def value_of(label: str) -> MPoly:
        if label == "1":
            return tensor.ring.one()
        out = tensor.ring.one()
        for part in label.split("*"):
            if "^" in part:
                nm, e = part.split("^")
                out = out * name_to_gen[nm] ** int(e)
            else:
                out = out * name_to_gen[part]
        return out

    def counit_of_label(label: str):
        if label == "1":
            return k.one()
        out = k.one()
        for part in label.split("*"):
            nm, e = (part.split("^") + ["1"])[:2]
            c = _merge_slots(tensor, value_of(nm))
            if not c.is_const():
                return None
            for _ in range(int(e)):
                out = k.mul(out, c.const_coeff())
        return out

    for name, g in zip(names, gens):
        # (counit x id) comul = id
        checked += 1
        acc = tensor.ring.zero()
        for (la, lb), c in comul[name].items():
            eps = counit_of_label(la)
            if eps is None:
                failures.append(f"counit law: {la} has no scalar counit")
                continue
            acc = acc + value_of(lb).scale(k.mul(c, eps))
        if not acc == g:
            failures.append(f"counit law fails on {name}")

        # antipode law: m (S x id) comul = unit counit
        checked += 1
        acc = tensor.ring.zero()
        for (la, lb), c in comul[name].items():
            s_img = tensor.ring.zero()
            sa = _antipode_of_label(tensor, antipode, names, name_to_gen, la)
            if sa is None:
                failures.append(f"antipode law: {la} not expressible")
                continue
            acc = acc + (sa * value_of(lb)).scale(c)
        expected = tensor.ring.one().scale(counit[name])
        if not acc == expected:
            failures.append(f"antipode law fails on {name}")

        # coassociativity in four slots
        checked += 1
        quad = _TripleRing(tensor, nslots=4)
        lhs = quad.ring.zero()
        rhs_ = quad.ring.zero()
        for (la, lb), c in comul[name].items():
            # (comul x id): split la over slots (1,2,3) against lb in (3,4)
            for (lc, ld), c2 in _comul_of_label(tensor, comul, names, name_to_gen, la, degree).items():
                term = (
                    quad.embed_pair(value_of(lc), 1, 2)
                    * quad.embed_pair(value_of(ld), 2, 3)
                    * quad.embed_pair(value_of(lb), 3, 4)
                )
                lhs = lhs + term.scale(k.mul(c, c2))
            for (lc, ld), c2 in _comul_of_label(tensor, comul, names, name_to_gen, lb, degree).items():
                term = (
                    quad.embed_pair(value_of(la), 1, 2)
                    * quad.embed_pair(value_of(lc), 2, 3)
                    * quad.embed_pair(value_of(ld), 3, 4)
                )
                rhs_ = rhs_ + term.scale(k.mul(c, c2))
        if not lhs == rhs_:
            failures.append(f"coassociativity fails on {name}")
    return Report(not failures, checked, failures, {"degree": degree})


def _antipode_of_label(tensor, antipode, names, name_to_gen, label):
    if label == "1":
        return tensor.ring.one()
    out = tensor.ring.one()
    for part in label.split("*"):
        nm, e = (part.split("^") + ["1"])[:2]
        img = tensor.ring.zero()
        for mono, c in antipode.get(nm, {}).items():
            img = img + _value_of_label(tensor, name_to_gen, mono).scale(c)
        for _ in range(int(e)):
            out = out * img
    return out


def _value_of_label(tensor, name_to_gen, label):
    if label == "1":
        return tensor.ring.one()
    out = tensor.ring.one()
    for part in label.split("*"):
        nm, e = (part.split("^") + ["1"])[:2]
        for _ in range(int(e)):
            out = out * name_to_gen[nm]
    return out


def _comul_of_label(tensor, comul, names, name_to_gen, label, degree) -> dict:
    """Comultiplication of a generator monomial, multiplied out from the
    generator values (comultiplication is an algebra map)."""
    k = tensor.data.k
    if label == "1":
        return {("1", "1"): k.one()}
    acc = {("1", "1"): k.one()}
    for part in label.split("*"):
        nm, e = (part.split("^") + ["1"])[:2]
        for _ in range(int(e)):
            nxt: dict = {}
            for (la, lb), c in acc.items():
                for (ma, mb), d in comul[nm].items():
                    key = (_mul_label(la, ma), _mul_label(lb, mb))
                    val = k.mul(c, d)
                    nxt[key] = k.add(nxt.get(key, k.zero()), val)
            acc = nxt
    return acc


def _mul_label(a: str, b: str) -> str:
    if a == "1":
        return b
    if b == "1":
        return a
    counts: dict = {}
    for part in a.split("*") + b.split("*"):
        nm, e = (part.split("^") + ["1"])[:2]
        counts[nm] = counts.get(nm, 0) + int(e)
    return "*".join(
        f"{nm}" + (f"^{e}" if e > 1 else "") for nm, e in sorted(counts.items())
    )


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


def _lift_k_to_base(base, c):
    return base.const(c) if hasattr(base, "const") else c


class _GaloisSystem:
    """Equation assembly for sigma(X (x) 1) = (X (x) 1)(1 (x) M)."""

    def __init__(self, data: PVData, base, horizon: int):
        self.data = data
        self.base = base
        self.horizon = horizon
        self.n = data.X.nrows

    def _ra(self, A: NilAlgebra) -> PolyRing:
        return PolyRing(A, self.data.R.vars, self.data.R.inverse_pairs)

    def _lift_poly(self, RA: PolyRing, A: NilAlgebra, p: MPoly) -> MPoly:
        return RA.poly({
            exp: A.scalar(_lift_k_to_base(A.base, c)) for exp, c in p.terms.items()
        })

    def _sigma_images(self, A: NilAlgebra, M: Matrix) -> dict:
        data = self.data
        RA = self._ra(A)
        XA = data.X.map(lambda p: self._lift_poly(RA, A, p), RA)
        XinvA = data.Xinv.map(lambda p: self._lift_poly(RA, A, p), RA)
        MA = Matrix(RA, [[RA.const(e) for e in row] for row in M.rows])
        XM = XA * MA
        Minv = M.inverse()
        MinvXinv = Matrix(RA, [[RA.const(e) for e in row] for row in Minv.rows]) * XinvA
        images = {}
        for g, (which, i, j) in data.gen_in_X.items():
            images[g] = XM.entry(i, j) if which == "X" else MinvXinv.entry(i, j)
        return images, XA, XM, MinvXinv, XinvA

    def _apply_sigma(self, RA: PolyRing, A: NilAlgebra, images: dict, p: MPoly) -> MPoly:
        out = RA.zero()
        for exp, c in p.sorted_terms():
            t = RA.const(A.scalar(_lift_k_to_base(A.base, c)))
            for i, e in enumerate(exp):
                name = self.data.R.vars[i]
                for _ in range(e):
                    t = t * images[name]
            out = out + t
        return out

    def _theta_on_RA(self, A: NilAlgebra, RA: PolyRing) -> ActionSpec | None:
        act = self.data.action
        if not act.has_theta():
            return None
        images = {}
        for name in self.data.R.vars:
            img_L = act.theta_series(self.data.r_to_L(self.data.R.var(name)), self.horizon)
            terms = {
                e: self._lift_poly(RA, A, self.data.l_to_r(c))
                for e, c in img_L.terms.items()
            }
            images[name] = TruncSeries(RA, act.wvars, self.horizon, terms)
        return ActionSpec(RA, "iterder", n=max(act.n, 1), theta_images=images,
                          wvars=act.wvars)

    def _endo_on_RA(self, A: NilAlgebra, RA: PolyRing, g_idx: int) -> dict:
        act = self.data.action
        images = {}
        for name in self.data.R.vars:
            img_L = act.apply_generator(g_idx, self.data.r_to_L(self.data.R.var(name)))
            images[name] = self._lift_poly(RA, A, self.data.l_to_r(img_L))
        return images

    def residues(self, A: NilAlgebra, M: Matrix) -> list:
        """All equation coefficients, as elements of A."""
        data = self.data
        RA = self._ra(A)
        images, XA, XM, MinvXinv, XinvA = self._sigma_images(A, M)
        eqs: list[MPoly] = []
        # matrix consistency: sigma applied to each entry equals the
        # transformed entry, for X and for its inverse
        for i in range(self.n):
            for j in range(self.n):
                eqs.append(self._apply_sigma(RA, A, images, data.X.entry(i, j))
                           - XM.entry(i, j))
                eqs.append(self._apply_sigma(RA, A, images, data.Xinv.entry(i, j))
                           - MinvXinv.entry(i, j))
        # ring relations: inverse pairs multiply to one
        for i, j in data.R.inverse_pairs:
            vi, vj = data.R.vars[i], data.R.vars[j]
            eqs.append(images[vi] * images[vj] - RA.one())
        # equivariance: operators commute with sigma on the generators
        theta_RA = self._theta_on_RA(A, RA)
        for kind, payload in _d_basis_entries(data.action, self.horizon):
            for name in data.R.vars:
                g = data.R.var(name)
                if kind == "theta":
                    dg = data.l_to_r(data.action.theta_coefficient(data.r_to_L(g), payload))
                    lhs = theta_RA.theta_series(images[name], sum(payload)).coeff(payload)
                else:
                    endo_images = self._endo_on_RA(A, RA, payload)
                    lhs = self._apply_sigma_with(RA, endo_images, images[name])
                    dg = data.l_to_r(data.action.apply_generator(payload, data.r_to_L(g)))
                rhs = self._apply_sigma(RA, A, images, dg)
                eqs.append(lhs - rhs)
        out = []
        for e in eqs:
            for exp in sorted(e.terms):
                out.append(((str(exp)), e.terms[exp]))
        return out

    @staticmethod
    def _apply_sigma_with(RA: PolyRing, gen_images: dict, p: MPoly) -> MPoly:
        out = RA.zero()
        for exp, c in p.sorted_terms():
            t = RA.const(c)
            for i, e in enumerate(exp):
                name = RA.vars[i]
                for _ in range(e):
                    t = t * gen_images[name]
            out = out + t
        return out


def galois_points(data: PVData, algebra: NilAlgebra, formal: bool = True,
                  horizon: int = 3, param_order: int = 3) -> GaloisFamily:
    """Solve for the automorphism matrices over a nilpotent test algebra.

    Formal points have M congruent to the identity modulo the nilradical;
    the system is linearized there and solved exactly, with layered
    corrections absorbing parameter-degree >= 2 residues of nonlinear
    equations.  The returned family carries symbolic parameters spanning the
    solution; substituting nilpotent values of the target algebra enumerates
    the actual points."""
    if not formal:
        raise ValueError("only formal points are solved; for points over a plain "
                         "algebra use the Hopf presentation")
    base = algebra.base
    sys = _GaloisSystem(data, base, horizon)
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

    # linearization at M = I
    probe_alg = NilAlgebra(base, ("_p",), 2)
    probe = probe_alg.gen("_p")
    zero_vals = [probe_alg.zero()] * nunknowns
    base_res = sys.residues(probe_alg, m_matrix(probe_alg, zero_vals))
    coords = sorted({lbl for lbl, _ in base_res})
    if any(not probe_alg.is_zero(v) for _, v in base_res):
        return GaloisFamily(data, algebra, [], m_matrix(algebra, [algebra.zero()] * nunknowns),
                            {}, Report(False, 1, ["identity is not a point"], {}))

    rows_map: dict = {}
    for u in range(nunknowns):
        vals = list(zero_vals)
        vals[u] = probe
        res = sys.residues(probe_alg, m_matrix(probe_alg, vals))
        agg: dict = {}
        for lbl, v in res:
            lin = v.get((1,), base.zero())
            cur = agg.get(lbl, base.zero())
            agg[lbl] = base.add(cur, lin) if lbl in agg else lin
        for lbl in coords:
            rows_map.setdefault(lbl, [base.zero()] * nunknowns)[u] = agg.get(lbl, base.zero())
    matrix = [rows_map.get(lbl, [base.zero()] * nunknowns) for lbl in coords]
    kernel = kernel_basis(matrix, base, ncols=nunknowns)
    params = [f"c{j}" for j in range(len(kernel))]
    P = NilAlgebra(base, params, param_order)
    values = []
    for u in range(nunknowns):
        v = P.zero()
        for j, vec in enumerate(kernel):
            if not base.is_zero(vec[u]):
                v = P.add(v, P.mul(P.gen(params[j]), P.scalar(vec[u])))
        values.append(v)

    failures: list[str] = []
    # layered corrections for nonlinear residues
    for _deg in range(2, param_order):
        res = sys.residues(P, m_matrix(P, values))
        monos = {m for _, v in res for m in v if sum(m) >= 2}
        if not monos:
            break
        progressed = False
        for mono in sorted(monos, key=lambda e: (sum(e), e)):
            res_map = {lbl: v for lbl, v in _aggregate(res, P)}
            rhs = [base.neg(res_map.get(lbl, P.zero()).get(mono, base.zero()))
                   for lbl in coords]
            if all(base.is_zero(b) for b in rhs):
                continue
            sol = solve_linear(matrix, rhs, base)
            if sol is None:
                failures.append(f"residue at parameter monomial {mono} is not absorbable")
                continue
            progressed = True
            for u in range(nunknowns):
                if not base.is_zero(sol[u]):
                    values[u] = P.add(values[u], P.element({mono: sol[u]}))
        if not progressed:
            break

    final_res = sys.residues(P, m_matrix(P, values))
    if any(not P.is_zero(v) for _, v in final_res):
        failures.append("solved family leaves a nonzero residue")

    M = m_matrix(P, values)
    RA = sys._ra(P)
    images, _, _, _, _ = sys._sigma_images(P, M)
    report = Report(not failures, len(coords), failures,
                    {"horizon": horizon, "parameters": len(params)})
    return GaloisFamily(data, P, params, M, images, report)


def _aggregate(res: list, P: NilAlgebra):
    agg: dict = {}
    for lbl, v in res:
        agg[lbl] = P.add(agg.get(lbl, P.zero()), v)
    return agg.items()


def lie_dim(data: PVData, horizon: int = 3) -> int:
    """Dimension of the formal points over the dual numbers as a module over
    the total field: the number of free parameters at nilpotency order 2."""
    A = NilAlgebra(data.L, ("eps",), 2)
    fam = galois_points(data, A, formal=True, horizon=horizon, param_order=2)
    if not fam.report.ok:
        raise ArithmeticError("formal point solve failed: " + "; ".join(fam.report.failures))
    return len(fam.params)


def check_mu_bijectivity(data: PVData, hopf: HopfPresentation, degree: int) -> Report:
    """The multiplication map from R tensor the constants onto the doubled
    ring: monomials r (x) h map to independent elements whose span contains
    every doubled monomial within the degree window."""
    k = data.k
    tensor = hopf.tensor
    failures = []
    r_monos = _laurent_monomials(data.R, 2 * degree)
    h_monos = _monomials_in(tensor.ring, hopf.gens, degree)
    images = []
    for r in r_monos:
        left = tensor.embed(r, 1)
        for h in h_monos:
            images.append(left * h)
    labels, rows = tensor.ring.scalar_coordinates(images)
    cols = [[rows[j][i] for j in range(len(images))] for i in range(len(labels))]
    ker = kernel_basis(cols, k, ncols=len(images))
    if ker:
        failures.append("monomial images are linearly dependent")
    targets = _laurent_monomials(tensor.ring, degree)
    for t in targets:
        if not _in_k_span(tensor.ring, t, images, k):
            failures.append(f"doubled monomial {t} is outside the image span")
            break
    return Report(not failures, len(images) + len(targets), failures, {"degree": degree})


# ---------------------------------------------------------------- compare


class CompareReport:
    """Parameter bijection between infinitesimal automorphisms of the hull
    and formal Picard-Vessiot points."""

    def __init__(self, ok: bool, details: dict):
        self.ok = ok
        self.details = details

    def as_dict(self) -> dict:
        return {"ok": self.ok, **{k: v for k, v in self.details.items()}}


def find_rational_point(data: PVData, height: int = 3):
    """A base-field point of the principal ring: integer values for the
    generators (nonzero for invertible ones) making X invertible."""
    R = data.R
    k = data.k
    inv_partner = {}
    for i, j in R.inverse_pairs:
        inv_partner[R.vars[i]] = R.vars[j]
        inv_partner[R.vars[j]] = R.vars[i]
    primary = [v for v in R.vars if v not in inv_partner or v < inv_partner[v]]
    candidates = [c for c in range(-height, height + 1)]
    candidates.sort(key=lambda c: (abs(c), -c))
    for combo in itertools.product(candidates, repeat=len(primary)):
        point = {}
        ok = True
        for v, c in zip(primary, combo):
            if v in inv_partner and c == 0:
                ok = False
                break
            point[v] = k.from_int(c)
            if v in inv_partner:
                point[inv_partner[v]] = k.inv(k.from_int(c))
        if not ok:
            continue
        B_rows = []
        for row in data.X.rows:
            B_rows.append([_eval_poly_at(p, point, k) for p in row])
        B = Matrix(k, B_rows)
        try:
            B.inverse()
        except ValueError:
            continue
        return point, B
    return None, None


def _eval_poly_at(p: MPoly, point: dict, k):
    out = k.zero()
    for exp, c in p.terms.items():
        t = c
        for i, e in enumerate(exp):
            for _ in range(e):
                t = k.mul(t, point[p.ring.vars[i]])
        out = k.add(out, t)
    return out


def compare(data: PVData, hull: HullData, relations, degree: int = 3) -> CompareReport:
    """Match the infinitesimal automorphisms of the hull with the formal
    Picard-Vessiot points over the dual-number style test algebras.

    A base-field point of the principal ring is located first (the theorem
    needs one; a missing point would require an etale base extension, which
    is reported rather than constructed).  Each symbolic infinitesimal
    automorphism is rewritten through the expansion pairing as an R (x) A
    transformation of the generators; the matrix it induces on X is matched
    against the solved formal family, giving the parameter map, and the map
    is verified to be a group isomorphism on symbolic parameters."""
    point, B = find_rational_point(data)
    details: dict = {}
    if point is None:
        return CompareReport(False, {
            "error": "no base-field point of the principal ring within the search "
                     "bounds; a finite etale extension would be needed"})
    details["rational_point"] = {v: data.k.to_str(c) for v, c in point.items()}
    details["point_matrix"] = str(B)

    um = solve_points(hull, relations)
    if um.family.empty:
        return CompareReport(False, {"error": "no infinitesimal automorphisms"})
    P = um.family.algebra
    A_target = NilAlgebra(data.L, tuple(um.family.params), P.order)

    # sigma-side family over a matching algebra
    gal = galois_points(data, A_target, formal=True, param_order=P.order)
    if not gal.report.ok:
        return CompareReport(False, {"error": "formal point solve failed",
                                     "failures": gal.report.failures})
    if len(gal.params) != len(um.family.params):
        return CompareReport(False, {
            "error": "parameter counts differ",
            "umemura": len(um.family.params), "galois": len(gal.params)})

    # rewrite each reconstructed image in split form: sum of deformed
    # expansions of R-monomials times w-free coefficients
    alg = hull.algebra
    L = data.L
    basis = [data.r_to_L(m) for m in _laurent_monomials(data.R, degree)]
    alg_P = alg.with_ring(P)
    deformed = [alg_P._deform_hom(alg.expand_plain(b), P.scalar) for b in basis]
    sigma_images = {}
    param_map_rows = []
    for label, _, _ in hull.rho_gens:
        img = um.images[label]
        coeffs = _split_tensor(img, deformed, P, L)
        if coeffs is None:
            return CompareReport(False, {
                "error": f"image of {label} is not split by the R-monomial basis; "
                         f"an etale twist would be required"})
        sigma_images[label] = coeffs
    details["sigma_images"] = {
        lbl: " + ".join(f"({P.to_str(c)})*({L.to_str(b)})" for b, c in pairs)
        for lbl, pairs in (
            (lbl, [(basis[i], c) for i, c in enumerate(cs) if not P.is_zero(c)])
            for lbl, cs in sigma_images.items()
        )
    }

    # induced matrix on X: sigma(X) entrywise through the generator images
    RA = PolyRing(P, data.R.vars, data.R.inverse_pairs)
    gen_images = {}
    for i, name in enumerate(data.L.vars):
        label = f"rho({name})"
        cs = sigma_images[label]
        img = RA.zero()
        for bi, c in enumerate(cs):
            if P.is_zero(c):
                continue
            img = img + _lift_r_elem(RA, P, data, basis[bi]).scale(c)
        gen_images[name] = img
        partner = _partner_of(data.R, name)
        if partner is not None:
            gen_images[partner] = RA.inv(img) if RA.is_unit(img) else _nil_inverse(RA, P, img)
    XA = data.X.map(lambda p: RA.poly({
        exp: P.scalar(_lift_k_to_base(P.base, c)) for exp, c in p.terms.items()
    }), RA)
    sigmaX = data.X.map(lambda p: _GaloisSystem._apply_sigma_with(RA, gen_images, RA.poly({
        exp: P.scalar(_lift_k_to_base(P.base, c)) for exp, c in p.terms.items()
    })), RA)
    Minduced = XA.inverse() * sigmaX
    const_entries = []
    for row in Minduced.rows:
        for e in row:
            if not e.is_const():
                return CompareReport(False, {
                    "error": "induced matrix is not constant over the test algebra"})
            const_entries.append(e.const_coeff())
    details["induced_matrix"] = "[" + "; ".join(
        ", ".join(P.to_str(Minduced.entry(i, j).const_coeff())
                  for j in range(data.X.ncols)) for i in range(data.X.nrows)) + "]"

    # parameter map: match the induced matrix against the solved family by
    # equating the coefficients of each parameter monomial
    pmap = _match_parameters(Minduced, gal, P, data)
    if pmap is None:
        return CompareReport(False, {"error": "no parameter bijection matches the "
                                              "solved formal family"})
    details["parameter_map"] = pmap["description"]

    # group law compatibility on symbolic parameters
    hom_ok = _homomorphism_check(data, hull, um, degree)
    details["group_homomorphism"] = hom_ok
    details["lie_dim"] = lie_dim(data)
    details["umemura_parameters"] = list(um.family.params)
    details["galois_parameters"] = list(gal.params)
    details["formal_group"] = um.classification
    return CompareReport(bool(pmap["bijective"] and hom_ok), details)


def _partner_of(R: PolyRing, name: str):
    for i, j in R.inverse_pairs:
        if R.vars[i] == name:
            return R.vars[j]
        if R.vars[j] == name:
            return R.vars[i]
    return None


def _lift_r_elem(RA: PolyRing, P: NilAlgebra, data: PVData, b: Frac) -> MPoly:
    p = data.l_to_r(b)
    return RA.poly({exp: P.scalar(_lift_k_to_base(P.base, c)) for exp, c in p.terms.items()})


def _nil_inverse(RA: PolyRing, P: NilAlgebra, img: MPoly) -> MPoly:
    """Inverse of a unit-monomial-plus-nilpotent element of R (x) A, by the
    geometric series on the nilpotent part."""
    unit_terms = {e: P.unit_part(c) for e, c in img.terms.items()
                  if not P.base.is_zero(P.unit_part(c))}
    m = RA.poly({e: P.scalar(c) for e, c in unit_terms.items()})
    m_inv = m.unit_inverse_or_none()
    if m_inv is None:
        raise ValueError("image is not invertible in the principal ring")
    eta = m_inv * img - RA.one()  # nilpotent coefficients
    acc = RA.one()
    pw = RA.one()
    for k in range(1, P.order + 1):
        pw = pw * eta
        if pw.is_zero():
            break
        acc = acc + pw if k % 2 == 0 else acc - pw
    out = acc * m_inv
    if not (out * img) == RA.one():
        raise ArithmeticError("nilpotent inverse did not close")
    return out


def _split_tensor(img: JointElement, deformed: list, P: NilAlgebra, L):
    """Write a joint element as sum_i deformed[i] * c_i with w-free c_i in the
    parameter algebra.  The deformed columns are parameter-free, so the same
    coefficient matrix over L serves every parameter monomial: it is reduced
    once, augmented with one right-hand column per monomial.  Returns the
    list of c_i, or None when some monomial's column is inconsistent (the
    element does not split)."""
    keys = sorted({k for d in deformed for k in d.coordinates()}
                  | set(img.coordinates()), key=str)
    dcoords = [d.coordinates() for d in deformed]
    ic = img.coordinates()
    monos = P.monomials()
    aug = []
    for key in keys:
        coeff = ic.get(key, P.zero())
        aug.append([P.unit_part(dc.get(key, P.zero())) for dc in dcoords]
                   + [coeff.get(mono, P.base.zero()) for mono in monos])
    ncols = len(deformed)
    m, pivots = rref(aug, L)
    if pivots and pivots[-1] >= ncols:
        return None  # a pivot in a right-hand column: that monomial is inconsistent
    out = [P.zero() for _ in deformed]
    for t, mono in enumerate(monos):
        for r, pc in enumerate(pivots):
            x = m[r][ncols + t]
            if not L.is_zero(x):
                out[pc] = P.add(out[pc], P.element({mono: x}))
    return out


def _match_parameters(Minduced: Matrix, gal: GaloisFamily, P: NilAlgebra, data: PVData):
    """Linear identification of the hull-side parameters with the formal
    point parameters: equate the parameter-degree-1 coefficients of the two
    matrices and verify the substitution reproduces the induced matrix."""
    base = gal.algebra.base
    n = Minduced.nrows
    src_params = P.gens
    tgt_params = gal.algebra.gens
    # build the linear map on parameters: columns indexed by target params,
    # equations indexed by (entry, source param)
    mat = []
    rhs = []
    for sp in range(len(src_params)):
        s_mono = tuple(1 if t == sp else 0 for t in range(len(src_params)))
        for i in range(n):
            for j in range(n):
                row = []
                for tp in range(len(tgt_params)):
                    t_mono = tuple(1 if t == tp else 0 for t in range(len(tgt_params)))
                    row.append(gal.M.entry(i, j).get(t_mono, base.zero()))
                mat.append(row)
                rhs.append(_lift_to_L(base, data,
                                      Minduced.entry(i, j).const_coeff().get(s_mono, P.base.zero())))
        # one solve per source parameter would interleave; solve jointly below
    # solve for the full linear substitution T with params_target = T params_src
    nsrc, ntgt = len(src_params), len(tgt_params)
    T = []
    per = n * n
    for sp in range(nsrc):
        block_rows = mat[sp * per:(sp + 1) * per]
        block_rhs = rhs[sp * per:(sp + 1) * per]
        col = solve_linear(block_rows, block_rhs, base)
        if col is None:
            return None
        T.append(col)
    # bijectivity of the parameter map
    bij = True
    if nsrc == ntgt:
        try:
            Matrix(base, [[T[s][t] for s in range(nsrc)] for t in range(ntgt)]).inverse()
        except ValueError:
            bij = False
    else:
        bij = False
    # verify: substituting the map into the solved family reproduces the
    # induced matrix including higher parameter degrees
    subs_vals = []
    for tp in range(ntgt):
        v = P.zero()
        for sp in range(nsrc):
            c = T[sp][tp]
            if not base.is_zero(c):
                mono = tuple(1 if t == sp else 0 for t in range(nsrc))
                v = P.add(v, P.element({mono: _project_to_P(base, P, data, c)}))
        subs_vals.append(v)
    for i in range(n):
        for j in range(n):
            got = _substitute_params(gal.M.entry(i, j), gal.algebra, P, subs_vals, data)
            want = _coerce_entry(Minduced.entry(i, j).const_coeff(), P, base, data)
            if not P.eq(got, want):
                return None
    desc = {}
    for sp, name in enumerate(src_params):
        parts = []
        for tp, tname in enumerate(tgt_params):
            c = T[sp][tp]
            if not base.is_zero(c):
                cs = base.to_str(c)
                parts.append(tname if cs == "1" else f"{cs}*{tname}")
        desc[name] = " + ".join(parts) if parts else "0"
    return {"bijective": bij, "matrix": T,
            "description": "; ".join(f"{k} -> {v}" for k, v in sorted(desc.items()))}


def _lift_to_L(base, data: PVData, c):
    """Coefficients of the hull-side algebra live over L already when the
    base is L; scalars lift through the constants field."""
    if hasattr(base, "const") and not hasattr(c, "num"):
        return base.const(c)
    return c


def _project_to_P(base, P: NilAlgebra, data: PVData, c):
    if hasattr(P.base, "const") and not hasattr(c, "num"):
        return P.base.const(c)
    return c


def _coerce_entry(v, P: NilAlgebra, base, data: PVData):
    out = P.zero()
    for mono, c in v.items():
        out = P.add(out, P.element({mono: _project_to_P(base, P, data, c)}))
    return out


def _substitute_params(v, A_from: NilAlgebra, P: NilAlgebra, values: list, data: PVData):
    """Evaluate an element of the galois parameter algebra at P-elements."""
    out = P.zero()
    for mono, c in v.items():
        t = P.scalar(_project_to_P(A_from.base, P, data, c))
        for idx, e in enumerate(mono):
            for _ in range(e):
                t = P.mul(t, values[idx])
        out = P.add(out, t)
    return out


def _homomorphism_check(data: PVData, hull: HullData, um: UmemuraReport, degree: int) -> bool:
    """The matrix induced by a composed pair of symbolic automorphisms is the
    product of the induced matrices."""
    fam = um.family
    if not fam.params:
        return True
    L = data.L
    nparams = len(fam.params)
    P2 = NilAlgebra(L, tuple(f"s{i}" for i in range(nparams))
                    + tuple(f"t{i}" for i in range(nparams)), 3)
    f = fam.instantiate(P2, {p: P2.gen(f"s{i}") for i, p in enumerate(fam.params)})
    g = fam.instantiate(P2, {p: P2.gen(f"t{i}") for i, p in enumerate(fam.params)})
    fg = f.compose(g)
    Mf = _induced_matrix(data, hull, P2, f, degree)
    Mg = _induced_matrix(data, hull, P2, g, degree)
    Mfg = _induced_matrix(data, hull, P2, fg, degree)
    if Mf is None or Mg is None or Mfg is None:
        return False
    prod = Mf * Mg
    return prod == Mfg


def _induced_matrix(data: PVData, hull: HullData, P: NilAlgebra, transform, degree: int):
    """Matrix on X induced by an infinitesimal automorphism given as a
    transformation: reconstruct the generator images through the expansion
    pairing, split them over the R-monomials, and read off X^{-1} sigma(X)."""
    alg = hull.algebra
    L = data.L
    n = alg.theta_u.n
    wh = alg.w_horizon
    alg_P = alg.with_ring(P)
    ident = [TruncSeries.variable(P, transform.vars, wh, v) for v in transform.vars]
    deviation = [c - ident[j] for j, c in enumerate(transform.comps)]
    basis = [data.r_to_L(m) for m in _laurent_monomials(data.R, degree)]
    deformed = [alg_P._deform_hom(alg.expand_plain(b), P.scalar) for b in basis]

    RA = PolyRing(P, data.R.vars, data.R.inverse_pairs)
    gen_images = {}
    for i, name in enumerate(data.L.vars):
        img = alg_P.zero()
        for k in multi_indices(n, wh):
            v = hull.derivative_table[(i, tuple(k))]
            power = TruncSeries.one(P, transform.vars, wh)
            for j, e in enumerate(k):
                for _ in range(e):
                    power = power * deviation[j]
            img = img + alg_P._deform_hom(v, P.scalar) * alg_P.from_w_series(power)
        coeffs = _split_tensor(img, deformed, P, L)
        if coeffs is None:
            return None
        r_img = RA.zero()
        for bi, c in enumerate(coeffs):
            if P.is_zero(c):
                continue
            r_img = r_img + _lift_r_elem(RA, P, data, basis[bi]).scale(c)
        gen_images[name] = r_img
        partner = _partner_of(data.R, name)
        if partner is not None:
            gen_images[partner] = _nil_inverse(RA, P, r_img)
    XA = data.X.map(lambda p: RA.poly({
        exp: P.scalar(_lift_k_to_base(P.base, c)) for exp, c in p.terms.items()
    }), RA)
    sigmaX = data.X.map(lambda p: _GaloisSystem._apply_sigma_with(RA, gen_images, RA.poly({
        exp: P.scalar(_lift_k_to_base(P.base, c)) for exp, c in p.terms.items()
    })), RA)
    M = XA.inverse() * sigmaX
    out = []
    for row in M.rows:
        rr = []
        for e in row:
            if not e.is_const():
                return None
            rr.append(e.const_coeff())
        out.append(rr)
    return Matrix(P, out)
