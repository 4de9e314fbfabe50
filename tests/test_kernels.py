import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencoag import (
    AdditiveKernel,
    ConfigError,
    ConstantKernel,
    DomainError,
    Kernel,
    PowerSumKernel,
    SingularProductKernel,
    kernel_from_config,
    make_grid,
    truncate,
)
from conftest import high_rank_kernel
from gencoag import kernels
from oracles import GROWTH_REGIMES, growth_ratios, scaled_falls, sup_bound


class TestEval:
    def test_constant(self):
        ker = ConstantKernel(1.0)
        assert ker.eval(3.7, 0.2) == 1.0

    def test_singular_product(self):
        ker = SingularProductKernel(k=1.0, sigma=0.25)
        assert ker.eval(0.25, 0.25) == pytest.approx(2.0, rel=1e-14)

    def test_additive(self):
        assert AdditiveKernel().eval(2.0, 3.0) == 5.0

    def test_nonpositive_argument_rejected(self):
        ker = ConstantKernel(1.0)
        with pytest.raises(DomainError):
            ker.eval(-1.0, 2.0)
        with pytest.raises(DomainError):
            ker.eval(1.0, 0.0)

    def test_vectorized(self):
        ker = SingularProductKernel(k=2.0, sigma=0.3)
        mu = np.array([0.5, 1.0, 2.0])
        out = ker.eval(mu, 1.0)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(2.0)

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.floats(1e-6, 1e6), nu=st.floats(1e-6, 1e6),
        sigma=st.floats(0.0, 0.49),
    )
    def test_symmetry_exact(self, mu, nu, sigma):
        ker = SingularProductKernel(k=1.3, sigma=sigma)
        assert ker.eval(mu, nu) == ker.eval(nu, mu)

    def test_symmetry_bulk(self):
        rng = np.random.default_rng(7)
        mu = np.exp(rng.uniform(-6, 6, 10**4))
        nu = np.exp(rng.uniform(-6, 6, 10**4))
        for ker in (ConstantKernel(), SingularProductKernel(k=1.0, sigma=0.2), AdditiveKernel()):
            assert np.all(ker.eval(mu, nu) == ker.eval(nu, mu))

    def test_sigma_guard(self):
        for sigma in (0.5, 0.6):
            with pytest.raises(DomainError):
                SingularProductKernel(k=1.0, sigma=sigma)
        SingularProductKernel(k=1.0, sigma=0.49)

    @pytest.mark.parametrize("params", [
        {"k": np.nan}, {"k": np.inf}, {"sigma": np.nan},
        {"sigma": np.inf}, {"k": -np.inf}, {"sigma": -np.inf},
    ])
    def test_non_finite_parameters_rejected(self, params):
        with pytest.raises(DomainError):
            SingularProductKernel(**params)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_constant_rate_rejected(self, rate):
        with pytest.raises(DomainError):
            ConstantKernel(rate=rate)


class TestCertifyGrowth:
    def test_singular_product_sharp(self):
        ker = SingularProductKernel(k=1.3, sigma=0.3)
        assert ker.k == 1.3
        # the small-small bound is attained identically, so also at its apex
        assert ker.certificate.growth[0] == ("small_small", 1.3, (1.0, 1.0), None)

    def test_product_kernel_fails(self):
        # Lambda = mu nu gels: Lambda / (mu + nu) grows without bound on the diagonal
        ker = PowerSumKernel([(1.0, 1.0, 1.0)])
        assert ker.k == np.inf
        large = {r.name: r for r in ker.certificate.growth}["large_large"]
        assert large.supremum == np.inf and large.ray == (1.0, 1.0)
        # brute force along that ray: (3, 3) gives 9 / 6, (30, 30) gives 900 / 60
        assert [ker.eval(x, x) / (2 * x) for x in (3.0, 30.0)] == [1.5, 15.0]

    def test_constant_with_sigma_passes(self):
        # 1 <= (mu nu)^(-0.1) on (0,1)^2 and 1 <= mu+nu on [1,inf)^2
        ker = ConstantKernel(1.0, sigma=0.1)
        assert (ker.k, ker.eta) == (1.0, 0.0)

    def test_grid_scan_oracle_agrees(self):
        # independent deterministic scan for the constant kernel
        ker = ConstantKernel(1.0, sigma=0.1)
        g = np.geomspace(1e-6, 1.0, 50)
        ratio = 1.0 / (ker.k * np.outer(g, g) ** (-ker.sigma))
        assert ratio.max() <= 1.0 + 1e-12
        h = np.geomspace(1.0, 1e6, 50)
        ratio_top = 1.0 / (ker.k * (h[:, None] + h[None, :]))
        assert ratio_top.max() <= 1.0 + 1e-12

    def test_stock_families_at_their_closed_forms(self):
        for sigma in (0.0, 0.2, 0.45):
            for c in (0.25, 1.0, 3.0):
                assert ConstantKernel(c, sigma=sigma).certificate == (
                    (("small_small", c, (1.0, 1.0), None), ("large_small", c, (1.0, 1.0), None),
                     ("large_large", c / 2, (1.0, 1.0), None)),
                    (("mu_below_nu", 0.0, (1.0, 1.0), None), ("mu_above_nu", 0.0, (1.0, 1.0), None)))
                sp = SingularProductKernel(k=c, sigma=sigma)
                assert (sp.k, sp.eta) == (c, sigma * c)
            additive = {r.name: r for r in AdditiveKernel(sigma=sigma).certificate.growth}
            for name in ("small_small", "large_small"):
                assert additive[name] == (name, 2.0, (1.0, 1.0), None)
            assert (AdditiveKernel(sigma=sigma).k, AdditiveKernel(sigma=sigma).eta) == (2.0, 0.0)

    def test_large_large_peak_inside_the_regime(self):
        # Lambda = mu^0.8 nu^0 over mu + nu peaks at nu = 1, mu = 4, at 4^0.8 / 5
        large = PowerSumKernel([(1.0, 0.0, 0.8)]).certificate.growth[2]
        assert large.point == pytest.approx((4.0, 1.0), rel=1e-14)
        assert large.supremum == pytest.approx(4.0**0.8 / 5.0, rel=1e-14)
        mu = np.geomspace(1.0, 1e3, 20001)
        assert np.max(mu**0.8 / (mu + 1.0)) <= large.supremum * (1 + 1e-12)

    def test_kernel_without_a_certificate_is_config_error(self):
        class Exponential(Kernel):
            def _rate(self, lo, hi):
                return np.exp(-(lo + hi))

        for read in ("k", "eta", "certificate"):
            with pytest.raises(ConfigError, match="no certificate"):
                getattr(Exponential(), read)

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["constant", "singular_product", "additive"]),
           sigma=st.just(0.0) | st.floats(0.0, 0.49), coef=st.floats(0.01, 100.0),
           seed=st.integers(0, 2**31 - 1))
    def test_no_sample_beats_the_certificate(self, family, sigma, coef, seed):
        rng = np.random.default_rng(seed)
        kernel = {
            "constant": lambda: ConstantKernel(coef, sigma=sigma),
            "singular_product": lambda: SingularProductKernel(k=coef, sigma=sigma),
            "additive": lambda: AdditiveKernel(sigma=sigma),
        }[family]()
        assert [r.name for r in kernel.certificate.growth] == list(GROWTH_REGIMES)
        for regime in kernel.certificate.growth:
            assert np.all(growth_ratios(kernel, regime.name, rng) <= regime.supremum * (1 + 1e-12))
        fall, noise = scaled_falls(kernel, rng)
        assert np.all(fall <= kernel.eta * (1 + 1e-8) + 8.0 * noise)


class TestCertifyDerivative:
    def test_constant_any_eta(self):
        assert ConstantKernel(1.0).eta == 0.0

    def test_singular_product_sharp_eta(self):
        ker = SingularProductKernel(k=1.0, sigma=0.3)  # eta = sigma k, sharp
        assert [(r.supremum, r.point) for r in ker.certificate.derivative] == [(0.3, (1.0, 1.0))] * 2
        fall, _ = scaled_falls(ker, np.random.default_rng(5))
        assert np.max(fall) == pytest.approx(0.3, rel=1e-8)

    def test_decreasing_kernel_with_zero_eta_fails(self):
        # Lambda = lo^-0.1 falls in mu below nu faster than any eta mu^-1 allows as mu -> 0
        ker = PowerSumKernel([(1.0, -0.1, 0.0)])
        below, above = ker.certificate.derivative
        assert below.supremum == np.inf and below.ray == (-1.0, -1.0)
        assert above.supremum == 0.0 and ker.eta == np.inf


class TestTruncate:
    def test_inside(self):
        # the grid on [1/n, n] is the truncation: truncate returns its kernel
        ker = ConstantKernel(1.0)
        tk = truncate(ker, 4.0)
        assert tk is ker and tk.eval(0.5, 0.5) == 1.0

    def test_sup_bound_singular(self):
        ker = SingularProductKernel(k=1.0, sigma=0.25)
        g = np.geomspace(0.1, 10.0, 200)
        vals = ker.eval(g[:, None], g[None, :])
        assert sup_bound(ker, 10.0) == 2.0 * ker.k * 10.0**2.5  # 2 k n^(2+2s), s = 1/4
        assert vals.max() <= sup_bound(ker, 10.0)

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            truncate(ConstantKernel(), 1.0)


class TestFactors:
    @pytest.mark.parametrize("base", [
        ConstantKernel(2.5),
        SingularProductKernel(k=1.3, sigma=0.3),
        AdditiveKernel(),
    ], ids=lambda b: b.family)
    def test_reproduce_eval_on_lower_triangle(self, base):
        grid = make_grid(50.0, 16)
        x = grid.centers
        factors = base.factors(x)
        assert len(factors) == {"constant": 1, "singular_product": 1, "additive": 2}[base.family]
        m, j = np.tril_indices(x.size)
        got = sum(f[m] * g[j] for f, g in factors)
        expect = base.eval(x[m], x[j])
        assert np.all(np.abs(got - expect) <= 1e-14 * expect)
        assert all(np.all(f >= 0.0) and np.all(g >= 0.0) for f, g in factors)

    def test_no_factors(self):
        class Exponential(Kernel):
            def _rate(self, lo, hi):
                return np.exp(-(lo + hi))

        x = np.geomspace(0.2, 5.0, 7)
        with pytest.raises(ConfigError, match="separable factors"):
            Exponential().factors(x)

    def test_presets_are_bit_equal_to_their_closed_forms(self):
        x = make_grid(50.0, 16).centers
        power = x ** -0.3
        cases = [
            (ConstantKernel(2.5), [(np.full_like(x, 2.5), np.ones_like(x))]),
            (SingularProductKernel(k=1.3, sigma=0.3), [(1.3 * power, power)]),
            (AdditiveKernel(), [(x, np.ones_like(x)), (np.ones_like(x), x)]),
        ]
        for base, expect in cases:
            got = base.factors(x)
            assert len(got) == len(expect)
            for (f, g), (fe, ge) in zip(got, expect):
                assert np.array_equal(f, fe) and np.array_equal(g, ge)

    @pytest.mark.parametrize("family", kernels._FAMILIES)
    def test_every_config_family_has_factors(self, family):
        # the operators run on factors alone: a family kernel_from_config
        # accepts without them could not be solved
        base = kernel_from_config({"family": family})
        x = make_grid(10.0, 16).centers
        factors = base.factors(x)
        assert factors and all(np.all(f >= 0.0) and np.all(g >= 0.0) for f, g in factors)
        m, j = np.tril_indices(x.size)
        got = sum(f[m] * g[j] for f, g in factors)
        expect = base.eval(x[m], x[j])
        assert np.all(np.abs(got - expect) <= 1e-14 * expect)

    def test_power_sum_terms_validated(self):
        for terms in ([], [(-1.0, 0.0, 0.0)], [(1.0, np.nan, 0.0)], [(np.inf, 0.0, 1.0)]):
            with pytest.raises(DomainError):
                PowerSumKernel(terms)

    def test_certified_k_keeps_the_kernel_below_its_sup_bound(self):
        # every regime bound is at most 2 k n^(1+s) on [1/n, n]^2
        for base in (ConstantKernel(100.0, sigma=0.3), SingularProductKernel(k=5.0, sigma=0.4),
                     AdditiveKernel(), high_rank_kernel()):
            for n in (1.5, 4.0, 50.0):
                g = np.geomspace(1.0 / n, n, 101)
                assert np.max(base.eval(g[:, None], g[None, :])) <= 2.0 * base.k * n ** (1 + base.sigma)
                assert 2.0 * base.k * n ** (1 + base.sigma) <= sup_bound(base, n)

    def test_nonpositive_argument_rejected(self):
        for kernel in (ConstantKernel(), AdditiveKernel(), high_rank_kernel()):
            for x in ([1.0, 0.0], [1.0, -2.0]):
                with pytest.raises(DomainError, match="must be positive"):
                    kernel.factors(np.array(x))


class TestFromConfig:
    def test_families(self):
        assert kernel_from_config({"family": "constant", "rate": 2.0}).family == "constant"
        assert kernel_from_config(
            {"family": "singular_product", "k": 1.0, "sigma": 0.2}
        ).sigma == 0.2
        assert kernel_from_config({"family": "additive"}).family == "additive"

    def test_unknown_family(self):
        with pytest.raises(Exception):
            kernel_from_config({"family": "bogus"})

    def test_k_is_the_singular_product_coefficient(self):
        kernel = kernel_from_config({"family": "singular_product", "k": 2.5, "sigma": 0.2})
        assert (kernel.k, kernel.eta, kernel.terms) == (2.5, 0.2 * 2.5, ((2.5, -0.2, -0.2),))

    @pytest.mark.parametrize("cfg, k", [
        ({"family": "constant", "rate": 0.5, "k": 0.5}, 0.5),
        ({"family": "constant", "k": 1}, 1.0),
        ({"family": "additive", "k": 2.0}, 2.0),
    ])
    def test_k_accepted_at_its_certified_value(self, cfg, k):
        assert kernel_from_config(cfg).k == k

    @pytest.mark.parametrize("cfg, message", [
        ({"family": "additive", "k": 1.9}, "kernel.k must be 2.0, got 1.9"),
        ({"family": "constant", "rate": 1.0, "k": 1000.0}, "kernel.k must be 1.0, got 1000.0"),
        ({"family": "constant", "rate": 0.5, "k": 1.0}, "kernel.k must be 0.5, got 1.0"),
        ({"family": "singular_product", "eta": 0.2}, "kernel.eta is not a setting"),
        ({"family": "constant", "eta": 0.0}, "kernel.eta is not a setting"),
    ])
    def test_k_elsewhere_and_eta_refused(self, cfg, message):
        with pytest.raises(ConfigError, match=message):
            kernel_from_config(cfg)
