import math
import pickle
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.special import exp1, gammainc
from scipy.stats import kstest

import levyheat as lh
from levyheat import measures, stats
from levyheat.errors import (
    EmptyRestrictionError,
    InfiniteActivityError,
    ZeroVarianceError,
)
from levyheat.quadrature import legendre_nodes
from levyheat.streams import stream


# ---------------------------------------------------------------------------
# variance
# ---------------------------------------------------------------------------

def test_variance_remark_closed_form(remark_model):
    # sigma^2(eps) = eps + eps^2 for the counterexample family
    assert lh.variance(remark_model, 0.1) == pytest.approx(0.11, rel=1e-12)


def test_variance_stable_closed_vs_quadrature(stable_model):
    for eps in (0.5, 0.05, 0.005):
        closed = lh.variance(stable_model, eps)
        expect = 2.0 * eps ** 0.5 / 0.5
        assert closed == pytest.approx(expect, rel=1e-13)
        assert lh.variance(stable_model, eps, method="quadrature") == pytest.approx(closed, rel=1e-8)


def test_variance_gamma_closed_vs_quadrature(gamma_model):
    for eps in (1.0, 0.1, 1e-3):
        closed = lh.variance(gamma_model, eps)
        assert closed == pytest.approx(1.0 - math.exp(-eps) * (1.0 + eps), rel=1e-12)
        assert lh.variance(gamma_model, eps, method="quadrature") == pytest.approx(closed, rel=1e-8)


def test_variance_gamma_small_eps_no_cancellation(gamma_model):
    # int_0^eps z e^{-z} dz is the regularized lower incomplete gamma P(2, eps)
    assert lh.variance(gamma_model, 1e-5) == pytest.approx(gammainc(2.0, 1e-5), rel=1e-12, abs=0.0)


def test_variance_compound_poisson_single_atom(cp_unit):
    assert lh.variance(cp_unit, 2.0) == pytest.approx(1.0, abs=0.0)


def test_variance_zero_raises(cp_unit):
    # atom at z=1 fully truncated away for eps < 1
    with pytest.raises(ZeroVarianceError):
        lh.variance(cp_unit, 0.5)


# ---------------------------------------------------------------------------
# ar_statistic
# ---------------------------------------------------------------------------

def test_ar_remark_exact(remark_model):
    # tail above kappa*sigma carries exactly eps^2 once eps < kappa sigma <= 1
    for eps in (0.1, 0.01, 0.001):
        got = lh.ar_statistic(remark_model, eps, 1.0)
        assert got == pytest.approx(eps ** 2 / (eps + eps ** 2), rel=1e-10)


def test_ar_gamma_small_eps_limit(gamma_model):
    # small-eps limit of the truncated gamma tail ratio is 1 - kappa^2/2
    got = lh.ar_statistic(gamma_model, 1e-4, 1.0)
    assert got == pytest.approx(0.5, abs=2e-2)
    assert got == pytest.approx(lh.ar_statistic(gamma_model, 1e-4, 1.0, method="quadrature"), rel=1e-7)


def test_ar_empty_tail_is_zero(stable_model, cp_unit):
    # kappa sigma above the support sup -> empty tail
    assert lh.ar_statistic(stable_model, 1e-3, 1.0) == 0.0
    assert lh.ar_statistic(cp_unit, 2.0, 1.5) == 0.0


def test_ar_monotone_in_kappa_and_bounded(gamma_model, stable_model, remark_model):
    for model, eps in ((gamma_model, 0.3), (stable_model, 2.0), (remark_model, 0.05)):
        vals = [lh.ar_statistic(model, eps, k) for k in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_ar_scan_table(gamma_model, stable_model):
    rep = lh.ar_scan(gamma_model, [1e-4], [0.5, 1.0, 1.4])
    for kappa, expect in ((0.5, 0.875), (1.0, 0.5), (1.4, 0.02)):
        assert rep.value(1e-4, kappa) == pytest.approx(expect, abs=2e-2)
    # stable: all zeros once kappa*sigma(eps) > eps
    rep = lh.ar_scan(stable_model, [1e-1, 1e-2, 1e-3], [1.0])
    for eps in (1e-1, 1e-2, 1e-3):
        assert rep.value(eps, 1.0) == 0.0


def test_ar_scan_single_cell_consistency(gamma_model):
    rep = lh.ar_scan(gamma_model, [0.05], [0.7])
    assert rep.value(0.05, 0.7) == lh.ar_statistic(gamma_model, 0.05, 0.7)


def test_ar_scan_marks_invalid_cells(cp_unit):
    rep = lh.ar_scan(cp_unit, [0.5, 2.0], [1.0])  # eps=0.5 truncates the only atom
    assert rep.value(0.5, 1.0) is None
    assert rep.value(2.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        lh.ar_scan(cp_unit, [], [1.0])


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_ar_guards_reject_nan_and_non_positive(gamma_model, bad):
    with pytest.raises(ValueError, match="kappa must be positive"):
        lh.ar_statistic(gamma_model, 0.1, bad)
    with pytest.raises(ValueError, match="delta must be positive"):
        lh.delta_statistic(gamma_model, 0.1, bad)


def test_delta_statistic_needs_a_finite_delta(gamma_model):
    with pytest.raises(ValueError, match=r"delta must be positive and finite, got delta=inf"):
        lh.delta_statistic(gamma_model, 0.1, math.inf)


@pytest.mark.parametrize("eps_grid,kappa_grid,name", [
    ([0.1], [math.nan, 1.0], "kappa"), ([0.1], [1.0, math.inf], "kappa"), ([0.1], [1.0, -1.0], "kappa"),
    ([0.1, math.nan], [1.0], "eps"), ([math.inf], [1.0], "eps"), ([0.1, 0.0], [1.0], "eps"),
])
def test_ar_scan_needs_finite_positive_grids(gamma_model, eps_grid, kappa_grid, name):
    with pytest.raises(ValueError, match=f"{name} grid must be finite and strictly positive"):
        lh.ar_scan(gamma_model, eps_grid, kappa_grid)


# ---------------------------------------------------------------------------
# delta_statistic
# ---------------------------------------------------------------------------

def test_delta_remark_divergent(remark_model):
    for delta in (0.1, 0.5, 1.0):
        assert lh.delta_statistic(remark_model, 0.37, delta) == math.inf


def test_delta_compound_poisson(cp_unit):
    assert lh.delta_statistic(cp_unit, 2.0, 1.0) == pytest.approx(1.0, abs=0.0)


def test_delta_stable_closed_vs_quadrature(stable_model):
    eps, delta, alpha = 0.3, 0.4, 1.5
    expect = (2.0 * eps ** (2.4 - alpha) / (2.4 - alpha)) / lh.variance(stable_model, eps) ** 1.2
    closed = lh.delta_statistic(stable_model, eps, delta)
    assert closed == pytest.approx(expect, rel=1e-12)
    assert lh.delta_statistic(stable_model, eps, delta, method="quadrature") == pytest.approx(closed, rel=1e-8)


def test_delta_implies_ar_inequality(gamma_model, stable_model, cp_symmetric):
    # Chebyshev/Hoelder chain: ar(eps, kappa) <= delta_stat(eps, delta) / kappa^delta
    rng = np.random.default_rng(42)
    models = [gamma_model, stable_model, cp_symmetric]
    for _ in range(60):
        model = models[rng.integers(len(models))]
        eps = float(10.0 ** rng.uniform(-3, 0.3))
        kappa = float(10.0 ** rng.uniform(-0.5, 0.5))
        delta = float(rng.uniform(0.05, 2.0))
        try:
            dstat = lh.delta_statistic(model, eps, delta)
        except ZeroVarianceError:
            continue
        if not math.isfinite(dstat):
            continue
        ar = lh.ar_statistic(model, eps, kappa)
        assert ar <= dstat / kappa ** delta + 1e-10


# ---------------------------------------------------------------------------
# restricted mean / mass
# ---------------------------------------------------------------------------

def test_restricted_mean_symmetric_exact_zero(stable_model, cp_symmetric):
    assert lh.restricted_mean(stable_model, 0.1, 1e-3) == 0.0
    assert lh.restricted_mean(cp_symmetric, 2.0, 0.0) == 0.0


def test_restricted_mean_gamma_limit(gamma_model):
    got = lh.restricted_mean(gamma_model, 0.1, 1e-300)
    assert got == pytest.approx(1.0 - math.exp(-0.1), rel=1e-12)


def test_restricted_mean_compound(cp_unit):
    assert lh.restricted_mean(cp_unit, 2.0, 0.5) == 1.0


def test_restricted_mass_infinite_at_zero(gamma_model, stable_model):
    assert math.isinf(lh.restricted_mass(gamma_model, 0.1, 0.0))
    with pytest.raises(InfiniteActivityError):
        lh.restricted_mean(stable_model, 0.1, 0.0)


# ---------------------------------------------------------------------------
# sample_marks
# ---------------------------------------------------------------------------

def test_sample_marks_two_point_law(cp_symmetric):
    rng = stream(101, 0, "marks")
    marks = lh.sample_marks(cp_symmetric, 2.0, 0.1, 10_000, rng)
    assert set(np.unique(marks)) == {-1.0, 1.0}
    assert np.mean(marks == 1.0) == pytest.approx(0.5, abs=0.02)


def test_sample_marks_support_restriction(gamma_model):
    rng = stream(102, 0, "marks")
    marks = lh.sample_marks(gamma_model, 0.1, 1e-4, 20_000, rng)
    assert np.all(marks > 1e-4) and np.all(marks <= 0.1)


def test_sample_marks_stable_symmetry(stable_model):
    rng = stream(103, 0, "marks")
    n = 100_000
    marks = lh.sample_marks(stable_model, 0.1, 0.01, n, rng)
    se = np.std(marks) / math.sqrt(n)
    assert abs(np.mean(marks)) <= 3.0 * se


def test_sample_marks_second_moment(gamma_model):
    # empirical second moment ~ int_{|z|>eta} z^2 Q / lambda within 3 SE
    rng = stream(104, 0, "marks")
    n, eps, eta = 100_000, 0.1, 1e-3
    marks = lh.sample_marks(gamma_model, eps, eta, n, rng)
    target = lh.restricted_moment2(gamma_model, eps, eta) / lh.restricted_mass(gamma_model, eps, eta)
    m2 = marks ** 2
    se = np.std(m2) / math.sqrt(n)
    assert abs(np.mean(m2) - target) <= 3.0 * se


def test_sample_marks_determinism(gamma_model):
    a = lh.sample_marks(gamma_model, 0.1, 1e-3, 1000, stream(7, 3, "marks"))
    b = lh.sample_marks(gamma_model, 0.1, 1e-3, 1000, stream(7, 3, "marks"))
    assert np.array_equal(a, b)


def test_sample_marks_errors(cp_unit, gamma_model):
    with pytest.raises(EmptyRestrictionError):
        lh.sample_marks(cp_unit, 2.0, 1.5, 10, stream(1, 0, "marks"))
    with pytest.raises(InfiniteActivityError):
        lh.sample_marks(gamma_model, 0.1, 0.0, 10, stream(1, 0, "marks"))


def test_remark_mark_sampler_matches_tail_mass(remark_model):
    # heavy |z|>1 branch must receive its share of the restricted mass
    rng = stream(105, 0, "marks")
    eps, eta, n = 0.1, 1e-3, 200_000
    marks = lh.sample_marks(remark_model, eps, eta, n, rng)
    lam = lh.restricted_mass(remark_model, eps, eta)
    p_tail = lh.restricted_mass(remark_model, eps, 1.0) / lam
    got = np.mean(np.abs(marks) > 1.0)
    se = math.sqrt(p_tail * (1 - p_tail) / n)
    assert got == pytest.approx(p_tail, abs=4 * se)


def test_power_quantile_maps_onto_the_segment():
    q = measures._power_quantile(1e-6, 1e-3, 1.5)
    u = np.array([0.0, 0.25, 0.5, 1.0 - 2.0 ** -53])
    r = q(u.copy())
    assert np.array_equal(q(u.copy()), r)  # the map overwrites its argument, and only that
    assert r[0] == 1e-6 and np.all(np.diff(r) > 0) and r[-1] <= 1e-3
    # u = F(r) for the restricted law of r^-2.5 on (lo, hi]
    cdf = (1e-6 ** -1.5 - r ** -1.5) / (1e-6 ** -1.5 - 1e-3 ** -1.5)
    assert np.allclose(cdf, u, rtol=0, atol=1e-12)
    assert measures._power_quantile(0.0, 1e-3, 1.5) is None


def test_stable_marks_match_the_table_on_the_same_draws(monkeypatch):
    # a custom density with the same law keeps the tabulated inverse; both draw
    # the segment and the uniform alike, so only the map from u to |z| differs
    eps, eta, n = 0.1, 1e-3, 20_000
    custom = lh.LevyModel(lh.CustomDensity(lambda z: np.abs(z) ** -2.5, (-eps, eps)))
    table = lh.sample_marks(custom, eps, eta, n, stream(106, 0, "marks"))
    model = lh.LevyModel(lh.SymmetricStable(1.5))

    def no_table(*args, **kw):
        raise AssertionError("a stable segment built a table")

    monkeypatch.setattr(measures, "_inverse_table", no_table)
    exact = lh.sample_marks(model, eps, eta, n, stream(106, 0, "marks"))
    assert np.array_equal(np.sign(exact), np.sign(table))
    assert np.max(np.abs(exact - table) / np.abs(exact)) <= 1e-7


def _choice_reference_marks(sampler, count, rng):
    """The mark draw through rng.choice for the atom or the segment and rng.uniform for
    the marks mapped from uniforms; the rejection segments draw after them, in turn."""
    if sampler.discrete:
        return rng.choice(sampler.values, size=count, p=sampler.probs)
    which = rng.choice(len(sampler.signs), size=count, p=sampler.probs)
    groups = sampler.group[which]
    from_uniform = ~sampler.rejects[groups]
    u = np.empty(count)
    u[from_uniform] = rng.uniform(0.0, 1.0, size=np.count_nonzero(from_uniform))
    out = np.empty(count)
    for g, mark in enumerate(sampler.maps):
        m = groups == g
        r = mark(np.count_nonzero(m), rng) if sampler.rejects[g] else mark(u[m])
        out[m] = sampler.signs[which[m]] * r
    return out


@dataclass(frozen=True)
class _SplitDensity(lh.CustomDensity):
    """A custom density with its last piece cut in two: three segments on a two-sided support."""

    def segments(self, eps, floor):
        pieces = super().segments(eps, floor)
        if not pieces:
            return pieces
        last = pieces[-1]
        cut = 0.5 * (last.lo + last.hi)
        return pieces[:-1] + [replace(last, hi=cut), replace(last, lo=cut)]


_SAMPLERS = {
    "gamma": (lambda: lh.LevyModel(lh.GammaSubordinator()), 0.1, 1e-4, 1),
    "stable": (lambda: lh.LevyModel(lh.SymmetricStable(1.5)), 0.1, 1e-4, 2),
    "remark": (lambda: lh.LevyModel(lh.RemarkDensityFamily()), 0.1, 1e-3, 4),
    "custom": (lambda: lh.LevyModel(_SplitDensity(lambda z: np.exp(-np.abs(z)), (-1.0, 0.5))), 1.0, 0.01, 3),
    "compound": (lambda: lh.LevyModel(lh.CompoundPoisson(((0.5, 1.0), (-0.2, 2.0), (0.05, 0.5)))), 1.0, 0.0, 3),
    "compound_one": (lambda: lh.LevyModel(lh.CompoundPoisson(((0.5, 1.0), (-0.2, 2.0)))), 1.0, 0.3, 1),
    # more atoms than the counting pass takes: drawn by binary search
    "compound_many": (lambda: lh.LevyModel(lh.CompoundPoisson(
        tuple(((-1) ** i * 0.01 * (i + 1), 1.0 + i % 3) for i in range(40)))), 1.0, 0.0, 40),
}


@pytest.mark.parametrize("family", list(_SAMPLERS))
def test_mark_draw_matches_rng_choice(family):
    # gamma and the remark tail draw by rejection, after the segment draw and
    # the uniforms of the other marks; every other family's marks are mapped
    # from uniforms, and its draws are the former rng.choice/rng.uniform ones
    make, eps, eta, pieces = _SAMPLERS[family]
    sampler = make().sampler(eps, eta)
    assert len(sampler.probs) == pieces
    assert sampler.discrete or sampler.rejects.any() == (family in ("gamma", "remark"))
    for count in (0, 1, 40_001):
        rng, ref = stream(110, count, family), stream(110, count, family)
        got = sampler.sample(count, rng)
        assert np.array_equal(got, _choice_reference_marks(sampler, count, ref))
        assert rng.random() == ref.random()  # the same draws were taken


def _ks_report(name, marks, cdf):
    res = kstest(marks, cdf)
    print(f"[marks KS] {name}: n={len(marks)} D={res.statistic:.2e} p={res.pvalue:.3f}")
    return res.pvalue


def test_closed_form_marks_follow_the_exact_law(stable_model, remark_model):
    n = 1_000_000
    eps, eta, al = 1e-2, 1e-4, 1.5
    marks = np.abs(lh.sample_marks(stable_model, eps, eta, n, stream(107, 0, "marks")))
    cdf = lambda r: (eta ** -al - r ** -al) / (eta ** -al - eps ** -al)
    assert _ks_report("stable 1.5, eps 1e-2, eta 1e-4", marks, cdf) > 1e-3
    # remark family: the marks with |z| <= eps follow its inner piece 1/(2 z^2)
    eps, eta = 0.1, 1e-3
    marks = np.abs(lh.sample_marks(remark_model, eps, eta, n, stream(108, 0, "marks")))
    inner = marks[marks <= eps]
    cdf = lambda r: (1.0 / eta - 1.0 / r) / (1.0 / eta - 1.0 / eps)
    assert _ks_report("remark inner, eps 0.1, eta 1e-3", inner, cdf) > 1e-3


def _gamma_cell(eps, budget):
    model = lh.LevyModel(lh.GammaSubordinator())
    eta = lh.LevyNoiseSpec(model=model, eps=eps, eta=f"atoms:{budget}", rho_budget=1.0).resolve_eta(1.0)
    return model, eps, eta


def _gamma_cdf(eps, eta):
    # int_eta^r e^-z / z dz over its value at eps
    return lambda r: (exp1(eta) - exp1(r)) / (exp1(eta) - exp1(eps))


def _remark_tail_cdf(lo):
    """CDF of r^-3 log(1 + r)^-2 on (lo, inf), in s = (lo / r)^2: F(r) = int_s^1 g / int_0^1 g with
    g(s) = log(1 + lo / sqrt(s))^-2, accumulated by Gauss-Legendre between the sorted points."""
    from scipy.integrate import quad

    g = lambda s: np.log1p(lo / np.sqrt(s)) ** -2.0
    total = quad(g, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    xg, wg = legendre_nodes(6)

    def cdf(r):
        r = np.asarray(r, dtype=float)
        order = np.argsort(r)
        s = (lo / r[order]) ** 2
        top, bottom = np.concatenate(([1.0], s[:-1])), s
        half = 0.5 * (top - bottom)
        pieces = half * (g((0.5 * (top + bottom))[:, None] + half[:, None] * xg) @ wg)
        out = np.empty_like(r)
        out[order] = np.cumsum(pieces) / total
        return out

    return cdf


# the cells drawn by rejection: the gamma cells of the dichotomy configs, at the
# eta their atom budgets resolve to, and the remark tail on (1, _TAIL_CAP] and,
# cut at eta = 2, on (2, _TAIL_CAP]
_REJECTION_CELLS = {
    "gamma-1e-1": lambda: (*_gamma_cell(1e-1, 200), None),
    "gamma-1e-2": lambda: (*_gamma_cell(1e-2, 200), None),
    "gamma-1e-3": lambda: (*_gamma_cell(1e-3, 200), None),
    "gamma-0.5": lambda: (*_gamma_cell(0.5, 120), None),
    "remark-tail": lambda: (lh.LevyModel(lh.RemarkDensityFamily()), 0.1, 1.0, _remark_tail_cdf(1.0)),
    "remark-tail-above-2": lambda: (lh.LevyModel(lh.RemarkDensityFamily()), 0.1, 2.0, _remark_tail_cdf(2.0)),
}


@pytest.mark.parametrize("cell", list(_REJECTION_CELLS))
def test_rejection_marks_follow_the_exact_law(cell):
    model, eps, eta, cdf = _REJECTION_CELLS[cell]()
    n = 1_000_000
    marks = np.abs(lh.sample_marks(model, eps, eta, n, stream(111, 0, cell)))
    assert _ks_report(f"{cell}, eta {eta:.3g}", marks, cdf or _gamma_cdf(eps, eta)) > 1e-3
    # the acceptance of the sampler's own proposals against its exact rate
    (draw,) = {seg.draw for seg in model.base.segments(eps, eta)}
    u, v = stream(112, 0, cell).random((2, n))
    accepted = np.mean(v < draw.accept(draw.propose(u)))
    se = math.sqrt(draw.rate * (1.0 - draw.rate) / n)
    print(f"[acceptance] {cell}: measured {accepted:.6f}, exact {draw.rate:.6f}")
    assert abs(accepted - draw.rate) <= 4.0 * se


def test_finite_mass_segment_at_the_origin_samples():
    model = lh.LevyModel(lh.CustomDensity(lambda z: np.exp(-z), (0.0, 1.0)))
    marks = lh.sample_marks(model, 1.0, 0.0, 100_000, stream(109, 0, "marks"))
    assert np.all((marks > 0.0) & (marks <= 1.0))
    cdf = lambda z: -np.expm1(-z) / -math.expm1(-1.0)
    assert _ks_report("exp(-z) on (0, 1], eta 0", marks, cdf) > 1e-3


def test_infinite_mass_at_the_origin_still_raises(stable_model):
    with pytest.raises(InfiniteActivityError):
        lh.sample_marks(stable_model, 0.1, 0.0, 10, stream(1, 0, "marks"))
    # the sampler itself rejects a segment whose tabulated mass diverges
    with pytest.raises(InfiniteActivityError):
        stable_model.sampler(0.1, 0.0)
    custom = lh.LevyModel(lh.CustomDensity(lambda z: np.abs(z) ** -2.5, (-0.1, 0.1)))
    with pytest.raises(InfiniteActivityError):
        custom.sampler(0.1, 0.0)


# ---------------------------------------------------------------------------
# model construction rules
# ---------------------------------------------------------------------------

def test_model_validation():
    # the family defines Q_eps for every eps: the model takes no other argument
    assert lh.LevyModel(lh.RemarkDensityFamily()).name == "remark"
    with pytest.raises(TypeError):
        lh.LevyModel(lh.GammaSubordinator(), None)
    with pytest.raises(ValueError):
        lh.SymmetricStable(2.5)
    with pytest.raises(ValueError):
        lh.CompoundPoisson(((0.0, 1.0),))


def test_mark_table_build_is_thread_safe(gamma_model):
    # cached CDF tables are built once under the model's lock
    import threading

    model = lh.LevyModel(lh.GammaSubordinator())
    results = [None] * 8

    def work(i):
        results[i] = lh.sample_marks(model, 0.1, 1e-3, 100, stream(55, i, "thr"))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(8):
        expect = lh.sample_marks(model, 0.1, 1e-3, 100, stream(55, i, "thr"))
        assert np.array_equal(results[i], expect)


@pytest.mark.filterwarnings("ignore:overflow")
def test_custom_density_integrability():
    with pytest.raises(lh.NonIntegrableError):
        lh.LevyModel(lh.CustomDensity(lambda z: np.abs(z) ** -4.0, (0.0, 1.0)))
    ok = lh.LevyModel(lh.CustomDensity(lambda z: np.exp(-np.abs(z)), (-2.0, 2.0), name="laplace"))
    assert lh.variance(ok, 2.0) == pytest.approx(
        2 * (2 - math.exp(-2) * (2 ** 2 + 2 * 2 + 2)), rel=1e-8
    )


@pytest.mark.parametrize("density, support", [
    (lambda z: np.exp(-np.abs(z)), (-math.inf, math.inf)),
    (lambda z: np.exp(-z), (0.0, math.inf)),
    (lambda z: z ** -2.0 * np.exp(-z), (0.0, math.inf)),
], ids=["laplace", "exponential", "inverse_square_exponential"])
def test_custom_density_unbounded_support_builds(density, support):
    lh.LevyModel(lh.CustomDensity(density, support))


def test_custom_density_unbounded_moments():
    laplace = lh.LevyModel(lh.CustomDensity(lambda z: np.exp(-np.abs(z)), (-math.inf, math.inf)))
    assert lh.variance(laplace, math.inf) == pytest.approx(4.0, rel=1e-8)
    # int_{0.5}^inf z^2 e^{-z} dz = 3.25 e^{-1/2}; all of it lies above |z| = 0.1
    tail = lh.LevyModel(lh.CustomDensity(lambda z: np.exp(-np.abs(z)), (-math.inf, -0.5)))
    assert lh.variance(tail, math.inf) == pytest.approx(3.25 * math.exp(-0.5), rel=1e-8)
    assert lh.restricted_moment2(tail, math.inf, 0.1) == pytest.approx(3.25 * math.exp(-0.5), rel=1e-8)


def test_remark_constants_enter_the_closed_forms(remark_model):
    # C and K0 are the log-tail integrals, cached per name
    eps = 0.1
    C = measures._log_tail(1.0, 0.0)
    assert lh.restricted_mass(remark_model, eps, 2.0) == eps ** 2 / C * measures._log_tail(2.0, -2.0)
    assert lh.restricted_mass(remark_model, eps, 0.05) == (
        1.0 / 0.05 - 1.0 / eps + eps ** 2 * measures._log_tail(1.0, -2.0) / C)


# the built-in families with (eps, eta) of a sampler to cache
_BUILT_IN = {
    "gamma": (lh.GammaSubordinator(), 0.1, 0.01),
    "stable": (lh.SymmetricStable(1.5), 0.1, 0.01),
    "remark": (lh.RemarkDensityFamily(), 0.1, 0.01),
    "compound": (lh.CompoundPoisson(((0.5, 1.0), (-0.2, 2.0))), 1.0, 0.0),
}


@pytest.mark.parametrize("family", list(_BUILT_IN))
def test_model_pickle_round_trip(family):
    # a model pickles as its family alone; the copy rebuilds its cache on use
    base, eps, eta = _BUILT_IN[family]
    model = lh.LevyModel(base)
    lh.sample_marks(model, eps, eta, 10, stream(1, 0, "pickle"))
    assert model._cache
    back = pickle.loads(pickle.dumps(model))
    assert back == model and back.base == model.base
    assert back._cache == {}
    assert np.array_equal(lh.sample_marks(back, eps, eta, 1000, stream(2, 0, "pickle")),
                          lh.sample_marks(model, eps, eta, 1000, stream(2, 0, "pickle")))


# ---------------------------------------------------------------------------
# family contract: closed forms against the shared quadrature fallback
# ---------------------------------------------------------------------------

_FAMILIES = {
    "gamma": (lambda: lh.LevyModel(lh.GammaSubordinator()), 0.1, (1e-4, 0.01, 0.05)),
    "stable": (lambda: lh.LevyModel(lh.SymmetricStable(1.5)), 0.1, (1e-4, 0.01, 0.05)),
    "remark": (lambda: lh.LevyModel(lh.RemarkDensityFamily()), 0.1, (1e-3, 0.05, 2.0)),
    "compound": (lambda: lh.LevyModel(lh.CompoundPoisson(((0.5, 1.0), (-0.2, 2.0), (0.05, 0.5), (1.5, 1.0)))),
                 1.0, (0.0, 0.1, 0.3)),
    "custom": (lambda: lh.LevyModel(lh.CustomDensity(lambda z: np.exp(-z), (0.0, 1.0))), 1.0, (0.0, 0.1, 0.5)),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_family_contract(family):
    make, eps, cuts = _FAMILIES[family]
    model = make()
    base = model.base
    for a in cuts:
        for p in (0.0, 2.0, 2.5):
            closed = base.abs_moment(eps, p, a)
            assert measures._quadrature_moment(base, eps, p, a) == pytest.approx(closed, rel=1e-8)
        signed = measures._quadrature_moment1(base, eps, a)
        if base.symmetric(eps):
            assert lh.restricted_mean(model, eps, a) == 0.0
            assert abs(signed) <= 1e-12 * base.abs_moment(eps, 1.0, a)
        else:
            assert signed == pytest.approx(lh.restricted_mean(model, eps, a), rel=1e-8)


def _amp(x):
    return 2.0 * np.sin(x) + 0.5 * np.sin(3.0 * x)


def test_compensator_psi_compound_poisson_atom_sum():
    from scipy.integrate import quad

    model = _FAMILIES["compound"][0]()
    expect = 0.0
    for z, w in ((0.5, 1.0), (-0.2, 2.0)):  # the atoms with 0.1 < |z| <= 1
        re = quad(lambda x: math.cos(_amp(x) * z) - 1.0, 0.0, math.pi, epsabs=0.0, epsrel=1e-13)[0]
        im = quad(lambda x: math.sin(_amp(x) * z) - _amp(x) * z, 0.0, math.pi, epsabs=0.0, epsrel=1e-13)[0]
        expect += w * complex(re, im)
    [got] = stats._compensator_psis(model, 1.0, 0.1, [_amp])
    assert abs(got - expect) <= 1e-10 * abs(expect)


def test_compensator_psi_gamma_matches_quad_over_z():
    from scipy.integrate import quad

    eps, eta = 0.1, 1e-4
    x, wx = legendre_nodes(64)
    x, wx = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * wx
    expect = 0.0
    for xi, wi in zip(x, wx):
        a = float(_amp(xi))
        # cos(az) - 1 = -2 sin(az/2)^2; the -iaz term integrates in closed form
        re = quad(lambda z: -2.0 * math.sin(0.5 * a * z) ** 2 * math.exp(-z) / z, eta, eps,
                  epsabs=0.0, epsrel=1e-13)[0]
        im = (quad(lambda z: math.sin(a * z) * math.exp(-z) / z, eta, eps, epsabs=0.0, epsrel=1e-13)[0]
              - a * (math.exp(-eta) - math.exp(-eps)))
        expect += wi * complex(re, im)
    [got] = stats._compensator_psis(lh.LevyModel(lh.GammaSubordinator()), eps, eta, [_amp])
    assert abs(got - expect) <= 1e-10 * abs(expect)
