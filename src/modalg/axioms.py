"""The module-algebra axioms, checked on bounded test sets, and products of
fields with a permutation action.

check_measuring verifies the multiplicative law of an expansion (the
realization of a product is the convolution of the realizations),
check_module_algebra its compatibility with the operator algebra (the unit
operator, the iteration rule of divided derivatives, word composition and
declared smash commutation rules), and check_expansion_universal the
factorization property of the universal expansion.  ProductRingSpec is a
product of copies of one field whose monoid generators permute the factors;
check_product_simplicity and product_constants answer for it.

This module is a leaf: no module of modalg imports it, so the chain
(hull, lieritt, umemura) never compiles it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from .actions import DEFAULT_WORD_BOUND, ActionSpec, Report, kernel_elements, monomial_basis
from .exactalg import GeneratorPowers, ProductField, restriction_kernel
from .lieritt import multi_indices
from .series import TruncSeries


# ------------------------------------------------------------ module algebra


def _test_elements(ring, depth: int) -> list:
    """Ring elements exercised by the checkers: monomials in the generators
    of total degree <= depth."""
    gens = ring.gens()
    one = ring.one()
    out = [one]
    frontier = [one]
    for _ in range(depth):
        frontier = [ring.mul(f, g) for f in frontier for g in gens]
        seen = []
        for f in frontier:
            if all(not ring.eq(f, s) for s in seen):
                seen.append(f)
        frontier = seen
        out.extend(frontier)
    uniq = []
    for f in out:
        if all(not ring.eq(f, s) for s in uniq):
            uniq.append(f)
    return uniq


def check_measuring(action: ActionSpec | Callable, ring, depth: int,
                    expander: Callable | None = None) -> Report:
    """Verify the multiplicative law of the expansion: the realization of a
    product is the convolution of the realizations, and the unit expands to
    the unit.  Failures carry the offending pair, also when the expander
    raises on it; an expander that raises on 1 fails the report at once,
    since every product law pairs 1 with itself."""
    if expander is None:
        expander = lambda a: action.expand(a, depth, min(depth, 3))  # noqa: E731
    elems = _test_elements(ring, max(depth // 2, 1))
    try:
        one_img = expander(ring.one())
        unit_ok = ring.eq(one_img.ev_unit(), ring.one()) and all(
            s == TruncSeries.const(s.ring, s.vars, s.horizon, ring.one())
            for s in one_img.data.values())
    except Exception as exc:  # broken hand-made expanders land here
        return Report(False, 0, [f"unit expansion failed: {exc}"], {"depth": depth})
    failures = [] if unit_ok else ["expansion of 1 is not the unit"]
    checked = 0
    for a, b in itertools.combinations_with_replacement(elems, 2):
        checked += 1
        try:
            holds, why = expander(ring.mul(a, b)) == expander(a) * expander(b), ""
        except Exception as exc:  # broken hand-made expanders land here
            holds, why = False, f": expansion failed: {exc}"
        if not holds:
            failures.append(f"product law fails at (a, b) = ({a}, {b}){why}")
            if len(failures) > 4:
                break
    return Report(not failures, checked, failures, {"depth": depth})


def check_module_algebra(action: ActionSpec, ring, depth: int,
                         expander: Callable | None = None) -> Report:
    """Verify compatibility with the operator algebra structure: the unit
    operator acts as the identity; iterated divided derivatives compose with
    binomial structure constants; monoid words compose; declared smash
    commutation rules hold."""
    failures: list[str] = []
    checked = 0
    elems = _test_elements(ring, max(depth // 2, 1))

    def expand(a, horizon):
        if expander is not None:
            return expander(a, horizon)
        return action.expand(a, horizon, min(depth, 3))

    for a in elems:
        checked += 1
        if not ring.eq(expand(a, depth).ev_unit(), a):
            failures.append(f"unit operator moves {a}")

    if action.has_theta():
        for a in elems:
            ea = expand(a, depth)
            unit_word = ea.monoid.unit()
            for i in multi_indices(action.n, depth):
                if not any(i):
                    continue
                da = ea.value(unit_word, i)
                eda = expand(da, depth - sum(i))
                for j in multi_indices(action.n, depth - sum(i)):
                    if sum(i) + sum(j) > depth:
                        continue
                    checked += 1
                    lhs = eda.value(unit_word, j)
                    ij = tuple(x + y for x, y in zip(i, j))
                    rhs = ring.mul(ea.value(unit_word, ij),
                                   ring.from_int(math.prod(map(math.comb, ij, i))))
                    if not ring.eq(lhs, rhs):
                        failures.append(
                            f"iteration rule fails at (i, j) = ({i}, {j}) on {a}"
                        )
                        break
                if failures:
                    break
            if failures:
                break

    if action.has_monoid() and action.monoid.kind == "free" and expander is None:
        for a in elems[: max(len(elems) // 2, 1)]:
            for w1 in action.monoid.words(1):
                for w2 in action.monoid.words(1):
                    checked += 1
                    lhs = action.apply_word(action.monoid.compose(w1, w2), a)
                    rhs = action.apply_word(w1, action.apply_word(w2, a))
                    if not ring.eq(lhs, rhs):
                        failures.append(f"word composition fails at {w1}, {w2} on {a}")

    if action.kind == "smash" and expander is None:
        rule = action.commutation
        for a in elems:
            for k in multi_indices(action.n, min(depth, 3)):
                if not any(k):
                    continue
                checked += 1
                da = action.theta_coefficient(a, k)
                lhs = action.apply_generator(0, da)
                if rule is None:
                    rhs = action.theta_coefficient(action.apply_generator(0, a), k)
                else:
                    rhs = ring.zero()
                    for coeff, j in rule.get(tuple(k), [(ring.one(), tuple(k))]):
                        rhs = ring.add(rhs, ring.mul(coeff, action.theta_coefficient(
                            action.apply_generator(0, a), j)))
                if not ring.eq(lhs, rhs):
                    failures.append(f"commutation rule fails at k = {k} on {a}")
                    break
            if failures:
                break

    return Report(not failures, checked, failures, {"depth": depth})


def check_expansion_universal(action: ActionSpec, Lambda: Callable, target,
                              target_lift: Callable, samples: Sequence,
                              horizon: int, word_bound: int = DEFAULT_WORD_BOUND) -> Report:
    """Factorization check: Lambda must equal coordinatewise application of
    ev-at-unit(Lambda) after the universal expansion.

    Lambda maps ring elements to HomElements with coefficients in `target`;
    the induced plain ring map is recovered on the generators and extended
    multiplicatively."""
    ring = action.ring
    powers = GeneratorPowers(target, {name: Lambda(ring.var(name)).ev_unit() for name in ring.vars})
    failures = []
    checked = 0
    for s in samples:
        checked += 1
        try:
            lam_s = ring.hom(s, powers, target_lift)
        except ZeroDivisionError:
            failures.append(f"induced map undefined on {s}")
            continue
        got = Lambda(s)
        mapped = action.expand(s, horizon, word_bound).map_coeffs(
            lambda c: ring.hom(c, powers, target_lift), target)
        if got != mapped:
            failures.append(f"factorization fails on {s}")
        elif not target.eq(lam_s, got.ev_unit()):
            failures.append(f"unit evaluation disagrees on {s}")
    return Report(not failures, checked, failures, {"horizon": horizon, "samples": len(samples)})


# --------------------------------------------------------- products of fields


class ProductRingSpec:
    """A product of copies of one field, with monoid generators acting by
    index permutations composed with factor endomorphisms."""

    def __init__(self, factor, count: int, perms: Sequence[Sequence[int]],
                 factor_maps: Sequence | None = None):
        self.ring = ProductField(factor, count)
        self.factor = factor
        self.count = count
        self.perms = [tuple(p) for p in perms]
        for p in self.perms:
            if sorted(p) != list(range(count)):
                raise ValueError(f"{p} is not a permutation of range({count})")
        self.factor_maps = factor_maps

    def apply_generator(self, g_idx: int, elem: tuple) -> tuple:
        p = self.perms[g_idx]
        moved = tuple(elem[p[i]] for i in range(self.count))
        if self.factor_maps and self.factor_maps[g_idx] is not None:
            moved = tuple(self.factor_maps[g_idx](x) for x in moved)
        return moved

    def orbits(self) -> list[list[int]]:
        """Orbit partition of the factor indices under all generators."""
        parent = list(range(self.count))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for p in self.perms:
            for i in range(self.count):
                a, b = find(i), find(p[i])
                if a != b:
                    parent[a] = b
        groups: dict[int, list[int]] = {}
        for i in range(self.count):
            groups.setdefault(find(i), []).append(i)
        return sorted(groups.values())


def check_product_simplicity(spec: ProductRingSpec) -> Report:
    """Simple iff the index action is transitive and every generator is
    injective; the failure report carries the orbit partition."""
    failures = []
    checked = len(spec.perms) + 1
    for gi, p in enumerate(spec.perms):
        if sorted(p) != list(range(spec.count)):
            failures.append(f"generator {gi} is not injective on the factors: {p}")
    orbs = spec.orbits()
    if len(orbs) > 1:
        failures.append(f"factor action is not transitive; orbits {orbs}")
    return Report(not failures, checked, failures, {"factors": spec.count})


def product_constants(spec: ProductRingSpec, action, degree: int) -> list:
    """Fixed points of the permutation action on tuples of factor monomials."""
    factor = spec.factor
    P = spec.ring
    basis = []
    for i in range(spec.count):
        for b in monomial_basis(factor, degree):
            v = [factor.zero()] * spec.count
            v[i] = b
            basis.append(tuple(v))
    columns: list[list] = [[] for _ in basis]
    for g_idx in range(len(spec.perms)):
        for j, b in enumerate(basis):
            moved = spec.apply_generator(g_idx, b)
            columns[j].append(P.sub(moved, b))
    return kernel_elements(P, basis, restriction_kernel(columns, P, P.scalars))
