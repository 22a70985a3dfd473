"""Picard-Vessiot comparison internals: splitting a joint element over the
deformed R-monomial basis, checked against a per-monomial reference solve."""

from __future__ import annotations

from modalg import pv
from modalg.actions import ActionSpec
from modalg.exactalg import QQ, FracField, Matrix, PolyRing, solve_linear
from modalg.hull import ExtensionDesc, find_relations, hull_generators
from modalg.series import TruncSeries, truncated_exp


def exponential_pv():
    """R = Q[y, 1/y], X = [[y]] for theta(y) = y exp(w)."""
    L = FracField(QQ, ["y"])
    y = L.var("y")
    w = TruncSeries.variable(L, ("w",), 8, "w")
    img = TruncSeries.const(L, ("w",), 8, y) * truncated_exp(w)
    action = ActionSpec(L, "iterder", n=1, theta_images={"y": img})
    R = PolyRing(QQ, ["y", "yi"], inverse_pairs=[(0, 1)])
    X = Matrix(R, [[R.var("y")]])
    data = pv.PVData(L, action, R, X, {"y": ("X", 0, 0), "yi": ("Xinv", 0, 0)},
                     name="exponential")
    return data, ExtensionDesc(L, [y], action, name="exponential")


def split_by_monomial(img, deformed, P, L):
    """Reference: one solve_linear per parameter monomial on the same matrix."""
    keys = sorted({k for d in deformed for k in d.coordinates()}
                  | set(img.coordinates()), key=str)
    dcoords = [d.coordinates() for d in deformed]
    dmat = [[P.unit_part(dc.get(key, P.zero())) for dc in dcoords] for key in keys]
    ic = img.coordinates()
    out = [P.zero() for _ in deformed]
    for mono in P.monomials():
        rhs = [ic.get(key, P.zero()).get(mono, P.base.zero()) for key in keys]
        sol = solve_linear(dmat, rhs, L)
        if sol is None:
            return None
        for i, x in enumerate(sol):
            if not L.is_zero(x):
                out[i] = P.add(out[i], P.element({mono: x}))
    return out


def test_split_tensor_matches_per_monomial_solve(monkeypatch):
    calls = []
    original = pv._split_tensor

    def recording(img, deformed, P, L):
        got = original(img, deformed, P, L)
        calls.append((img, deformed, P, L, got))
        return got

    monkeypatch.setattr(pv, "_split_tensor", recording)
    data, ext = exponential_pv()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=3, degree=2)
    assert pv.compare(data, hull, rels, degree=3).ok
    assert calls
    for img, deformed, P, L, got in calls:
        want = split_by_monomial(img, deformed, P, L)
        assert got is not None and want is not None
        assert len(got) == len(want)
        assert all(P.eq(a, b) for a, b in zip(got, want))
    # fewer basis columns: both agree on whether the element splits
    img, deformed, P, L, _ = calls[0]
    assert original(img, [], P, L) is None
    assert split_by_monomial(img, [], P, L) is None
    for short in (deformed[:1], deformed[1:]):
        got = original(img, short, P, L)
        want = split_by_monomial(img, short, P, L)
        assert (got is None) == (want is None)
        if got is not None:
            assert all(P.eq(a, b) for a, b in zip(got, want))
