"""Seeded worked examples for the benchmark, each checked against the value
the theory gives.

A problem is built from a handful of constants that the seed picks; the
theory answer (formal-group tag, Lie-Ritt ideal, Lie dimension, group
compatibility) does not depend on them.  ``build`` makes the input objects
(fields, actions, extension and Picard-Vessiot descriptions); ``solve``
runs the library from those inputs and returns the answer; ``check`` lists
every way the answer differs from the theory value.  The library only ever
sees the generated inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from modalg import hull, pv, umemura
from modalg.actions import ActionSpec, MonoidDesc
from modalg.exactalg import GF, QQ, FracField, Matrix, PolyRing
from modalg.hull import ExtensionDesc
from modalg.lieritt import DiffPoly, NilAlgebra
from modalg.series import TruncSeries, truncated_exp

# nonzero constants of equal height, so that the cost of a pass does not
# depend on the seed beyond noise
CONSTANTS = tuple(Fraction(c) for c in ("2", "-2", "3", "-3", "1/2", "-1/2", "1/3", "-1/3"))
# q-difference multipliers: the same values, none of them a root of unity
Q_MULTIPLIERS = CONSTANTS
# primes above every horizon used, so divided powers never wrap
PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
          83, 89, 97)
SERIES_PREC = 8


# ------------------------------------------------------------------ inputs


def _function_field(field):
    L = FracField(field, ["y"])
    return L, L.var("y")


def additive_action(field, c):
    """theta(y) = y + c*w: the additive extension, hull group G_a-hat."""
    L, y = _function_field(field)
    img = TruncSeries(L, ("w",), SERIES_PREC, {(0,): y, (1,): L.const(c)})
    return L, ActionSpec(L, "iterder", n=1, theta_images={"y": img})


def exponential_action(c):
    """theta(y) = y*exp(c*w): the exponential extension, hull group G_m-hat."""
    L, y = _function_field(QQ)
    w = TruncSeries.variable(L, ("w",), SERIES_PREC, "w")
    img = TruncSeries.const(L, ("w",), SERIES_PREC, y) * truncated_exp(w.scale(L.const(c)))
    return L, ActionSpec(L, "iterder", n=1, theta_images={"y": img})


def q_difference_action(q):
    """sigma(y) = q*y as an endomorphism action: a q-difference extension."""
    L, y = _function_field(QQ)
    act = ActionSpec(L, "end", monoid=MonoidDesc("endo"), endo_maps=[{"y": y * L.const(q)}])
    return L, act


def pv_exponential(c):
    """R = Q[y, 1/y], X = [[y]] for theta(y) = y*exp(c*w)."""
    L, act = exponential_action(c)
    R = PolyRing(QQ, ["y", "yi"], inverse_pairs=[(0, 1)])
    X = Matrix(R, [[R.var("y")]])
    data = pv.PVData(L, act, R, X, {"y": ("X", 0, 0), "yi": ("Xinv", 0, 0)},
                     name="exponential")
    return data, ExtensionDesc(L, [L.var("y")], act, name="exponential")


def pv_additive(c):
    """R = Q[y], X = [[1, y], [0, 1]] for theta(y) = y + c*w."""
    L, act = additive_action(QQ, c)
    R = PolyRing(QQ, ["y"])
    X = Matrix(R, [[R.one(), R.var("y")], [R.zero(), R.one()]])
    data = pv.PVData(L, act, R, X, {"y": ("X", 0, 1)}, name="additive")
    return data, ExtensionDesc(L, [L.var("y")], act, name="additive")


# ------------------------------------------------------------ theory values


def _symbol(L, wvars, wh, k):
    return DiffPoly.symbol(1, L, wvars, wh, 0, (k,))


def _coefficient(L, wvars, wh, terms):
    return DiffPoly.coefficient(1, TruncSeries(L, wvars, wh, terms))


def translation_ideal(L, wvars, wh):
    """Y' = 1 and Y^(k) = 0 for 2 <= k <= wh: the translations w -> w + a."""
    gens = [_symbol(L, wvars, wh, 1) - _coefficient(L, wvars, wh, {(0,): L.one()})]
    return gens + [_symbol(L, wvars, wh, k) for k in range(2, wh + 1)]


def conjugated_scaling_ideal(L, wvars, wh):
    """(y + w) Y' = Y + y and Y^(k) = 0 for 2 <= k <= wh: the scalings
    w + y -> (1 + a)(w + y) about the point -y."""
    y = L.var("y")
    y_plus_w = _coefficient(L, wvars, wh, {(0,): y, (1,): L.one()})
    gens = [y_plus_w * _symbol(L, wvars, wh, 1) - _symbol(L, wvars, wh, 0)
            - _coefficient(L, wvars, wh, {(0,): y})]
    return gens + [_symbol(L, wvars, wh, k) for k in range(2, wh + 1)]


def _same_ideal(got, expected) -> bool:
    if len(got) != len(expected):
        return False
    unmatched = list(expected)
    for g in got:
        hit = next((i for i, e in enumerate(unmatched)
                    if g.wvars == e.wvars and g.horizon == e.horizon and (g - e).is_zero()),
                   None)
        if hit is None:
            return False
        unmatched.pop(hit)
    return True


# ---------------------------------------------------------------- problems


class ChainProblem:
    """hull_generators -> find_relations -> build_ideal -> solve_points ->
    group_compatibility_check on one extension, optionally followed by the
    group inverse of a symbolic point."""

    def __init__(self, name, make, t_horizon, w_horizon, tag, ideal, basis_scale=None,
                 check_inverse=False):
        self.name = name
        self.make = make
        self.t_horizon = t_horizon
        self.w_horizon = w_horizon
        self.tag = tag
        self.ideal = ideal
        self.basis_scale = basis_scale
        self.check_inverse = check_inverse

    def build(self):
        L, act = self.make()
        y = L.var("y")
        basis = y if self.basis_scale is None else y * L.const(self.basis_scale)
        return ExtensionDesc(L, [basis], act, name=self.name)

    def solve(self, ext) -> dict:
        h = hull.hull_generators(ext, t_horizon=self.t_horizon, w_horizon=self.w_horizon)
        rels = hull.find_relations(h, diff_order=self.w_horizon, degree=2)
        ideal = umemura.build_ideal(h, rels)
        report = umemura.solve_points(h, rels, ideal)
        compatible = umemura.group_compatibility_check(h, report)
        expected = self.ideal(ext.L, ideal.wvars, self.w_horizon)
        ans = {
            "tag": report.classification["tag"],
            "params": len(report.family.params),
            "ideal": sorted(str(g) for g in ideal.generators),
            "ideal_is_theory": _same_ideal(ideal.generators, expected),
            "compatible": bool(compatible),
        }
        if self.check_inverse and ans["params"] == 1:
            ans["inverse_is_theory"] = _inverse_is_theory(report.family, self.tag)
        return ans

    def check(self, ans: dict) -> list[str]:
        bad = []
        if ans["tag"] != self.tag:
            bad.append(f"tag {ans['tag']} != {self.tag}")
        if ans["params"] != 1:
            bad.append(f"{ans['params']} parameters != 1")
        if not ans["ideal_is_theory"]:
            bad.append(f"ideal {ans['ideal']} is not the theory ideal")
        if not ans["compatible"]:
            bad.append("group_compatibility_check failed")
        if self.check_inverse and not ans.get("inverse_is_theory"):
            bad.append("inverse point is not the point at the inverse parameter")
        return bad


def _inverse_is_theory(family, tag) -> bool:
    """The inverse of the point at a symbolic parameter s is the point at the
    inverse of s under the formal group law: -s for G_a-hat, and
    (1 + s)^-1 - 1 = sum_k (-s)^k for the multiplicative law."""
    A = NilAlgebra(family.algebra.base, ("s",), family.algebra.order)
    neg = A.neg(A.gen("s"))
    if tag == "Ga_hat":
        inverse = neg
    else:
        inverse, term = A.zero(), A.one()
        for _ in range(A.order):
            term = A.mul(term, neg)
            inverse = A.add(inverse, term)
    point = family.instantiate(A, {family.params[0]: A.gen("s")})
    return point.invert() == family.instantiate(A, {family.params[0]: inverse})


class CompareProblem:
    """pv.compare of a Picard-Vessiot extension with its hull group."""

    def __init__(self, name, make, t_horizon, w_horizon, tag):
        self.name = name
        self.make = make
        self.t_horizon = t_horizon
        self.w_horizon = w_horizon
        self.tag = tag

    def build(self):
        return self.make()

    def solve(self, inputs) -> dict:
        data, ext = inputs
        h = hull.hull_generators(ext, t_horizon=self.t_horizon, w_horizon=self.w_horizon)
        rels = hull.find_relations(h, diff_order=self.w_horizon, degree=2)
        d = pv.compare(data, h, rels, degree=3).as_dict()
        group = d.get("formal_group")
        return {
            "ok": bool(d["ok"]),
            "error": d.get("error"),
            "lie_dim": d.get("lie_dim"),
            "tag": group.get("tag") if isinstance(group, dict) else None,
            "group_homomorphism": d.get("group_homomorphism"),
        }

    def check(self, ans: dict) -> list[str]:
        bad = []
        if not ans["ok"]:
            bad.append(f"compare not ok: {ans['error']}")
        if ans["lie_dim"] != 1:
            bad.append(f"lie_dim {ans['lie_dim']} != 1")
        if ans["tag"] != self.tag:
            bad.append(f"tag {ans['tag']} != {self.tag}")
        if ans["group_homomorphism"] is not True:
            bad.append("parameter map is not a group homomorphism")
        return bad


class VerifyProblem:
    """pv.verify of the Picard-Vessiot axioms; the theory says they hold."""

    def __init__(self, name, make, degree):
        self.name = name
        self.make = make
        self.degree = degree

    def build(self):
        return self.make()

    def solve(self, inputs) -> dict:
        data, _ = inputs
        report = pv.verify(data, self.degree)
        return {"ok": bool(report.ok), "failures": list(report.failures)}

    def check(self, ans: dict) -> list[str]:
        return [] if ans["ok"] else [f"verify not ok: {'; '.join(ans['failures'])}"]


# --------------------------------------------------------------- workloads


WORKLOADS = ("chain-deep", "pv-compare", "sweep-small")


def workload(name: str, seed: int) -> tuple[list, list]:
    """The timed problems and the probes of a workload at a seed.  Probes are
    known defects of the library, run once per run outside the timed passes."""
    rng = random.Random(f"{name}:{seed}")

    def const():
        return rng.choice(CONSTANTS)

    if name == "chain-deep":
        ca, ce = const(), const()
        return [
            ChainProblem(f"additive c={ca}", lambda: additive_action(QQ, ca), 4, 8,
                         "Ga_hat", translation_ideal),
            ChainProblem(f"exponential c={ce}", lambda: exponential_action(ce), 4, 8,
                         "Gm_hat_conjugate", conjugated_scaling_ideal),
        ], []
    if name == "pv-compare":
        ce, ca, cv = const(), const(), const()
        return [
            CompareProblem(f"pv exponential c={ce}", lambda: pv_exponential(ce), 3, 3,
                           "Gm_hat_conjugate"),
        ], [
            CompareProblem(f"probe pv additive compare c={ca}", lambda: pv_additive(ca), 3, 3,
                           "Ga_hat"),
            VerifyProblem(f"probe pv exponential verify c={cv}", lambda: pv_exponential(cv), 3),
        ]
    if name == "sweep-small":
        problems = []
        for p in sorted(rng.sample(PRIMES, 4)):
            F = GF(p)
            c = rng.randrange(1, p)
            problems.append(ChainProblem(
                f"additive GF({p}) c={c}", lambda F=F, c=c: additive_action(F, F.from_int(c)),
                3, 4, "Ga_hat", translation_ideal, check_inverse=True))
        ca, cb, b, ce = const(), const(), const(), const()
        q = rng.choice(Q_MULTIPLIERS)
        problems += [
            ChainProblem(f"additive c={ca}", lambda: additive_action(QQ, ca), 3, 4,
                         "Ga_hat", translation_ideal, check_inverse=True),
            ChainProblem(f"additive c={cb} basis {b}*y", lambda: additive_action(QQ, cb), 3, 4,
                         "Ga_hat", translation_ideal, basis_scale=b, check_inverse=True),
            ChainProblem(f"exponential c={ce}", lambda: exponential_action(ce), 3, 4,
                         "Gm_hat_conjugate", conjugated_scaling_ideal, check_inverse=True),
            ChainProblem(f"q-difference q={q}", lambda: q_difference_action(q), 2, 2,
                         "Gm_hat_conjugate", conjugated_scaling_ideal, check_inverse=True),
        ]
        return problems, []
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
