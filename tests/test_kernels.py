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
    SingularProductKernel,
    TabulatedKernel,
    certify_derivative,
    certify_growth,
    kernel_from_config,
    make_grid,
    truncate,
)


class TestEval:
    def test_constant(self):
        ker = ConstantKernel(1.0)
        assert ker.eval(3.7, 0.2) == 1.0

    def test_singular_product(self):
        ker = SingularProductKernel(k=1.0, sigma=0.5, allow_large_sigma=True)
        assert ker.eval(0.25, 0.25) == pytest.approx(4.0, rel=1e-14)

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
        with pytest.raises(DomainError):
            SingularProductKernel(k=1.0, sigma=0.6)
        SingularProductKernel(k=1.0, sigma=0.6, allow_large_sigma=True)

    @pytest.mark.parametrize("params", [
        {"k": np.nan}, {"k": np.inf}, {"sigma": np.nan},
        {"sigma": np.inf, "allow_large_sigma": True}, {"eta": np.nan}, {"eta": np.inf},
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
        ker = SingularProductKernel(k=1.0, sigma=0.3)
        rep = certify_growth(ker, 4000, seed=1)
        assert rep.passed
        # the small-small bound is attained identically
        small = [r for r in rep.regimes if r.name == "small_small"][0]
        assert small.worst_ratio == pytest.approx(1.0, abs=1e-12)

    def test_product_kernel_fails(self):
        class ProductKernel(Kernel):
            family = "user"

            def _rate(self, lo, hi):
                return lo * hi

        ker = ProductKernel(k=1.0, sigma=0.0)
        rep = certify_growth(ker, 4000, seed=2)
        assert not rep.passed
        # brute-force oracle over the large-large regime: Lambda/(mu+nu)
        # is unbounded, e.g. (3,3) gives 9 > 6
        assert ker.eval(3.0, 3.0) == 9.0 > ker.k * 6.0
        large = [r for r in rep.regimes if r.name == "large_large"][0]
        assert large.violations > 0 and large.worst_ratio > 1.0

    def test_constant_with_sigma_passes(self):
        # 1 <= (mu nu)^(-0.1) on (0,1)^2 and 1 <= mu+nu on [1,inf)^2
        rep = certify_growth(ConstantKernel(1.0, sigma=0.1), 4000, seed=3)
        assert rep.passed

    def test_grid_scan_oracle_agrees(self):
        # independent deterministic scan for the constant kernel
        ker = ConstantKernel(1.0, sigma=0.1)
        g = np.geomspace(1e-6, 1.0, 50)
        ratio = 1.0 / (ker.k * np.outer(g, g) ** (-ker.sigma))
        assert ratio.max() <= 1.0 + 1e-12
        h = np.geomspace(1.0, 1e6, 50)
        ratio_top = 1.0 / (ker.k * (h[:, None] + h[None, :]))
        assert ratio_top.max() <= 1.0 + 1e-12

    def test_sample_count_guard(self):
        with pytest.raises(DomainError):
            certify_growth(ConstantKernel(), 0)


class TestCertifyDerivative:
    def test_constant_any_eta(self):
        rep = certify_derivative(ConstantKernel(1.0), 1000, 1e-4, seed=4)
        assert rep.passed

    def test_singular_product_sharp_eta(self):
        ker = SingularProductKernel(k=1.0, sigma=0.3)  # eta = sigma k, sharp
        rep = certify_derivative(ker, 2000, 1e-5, seed=5)
        assert rep.passed

    def test_decreasing_kernel_with_zero_eta_fails(self):
        class DecayKernel(Kernel):
            family = "user"

            def _rate(self, lo, hi):
                return np.exp(-(lo + hi))

        rep = certify_derivative(DecayKernel(k=1.0, eta=0.0), 2000, 1e-4, seed=6)
        assert not rep.passed
        witness = rep.regimes[0].witness
        assert len(witness) == 2  # reproducible failure point

    def test_fd_step_guard(self):
        with pytest.raises(DomainError):
            certify_derivative(ConstantKernel(), 100, 0.0)


class TestTruncate:
    def test_inside(self):
        tk = truncate(ConstantKernel(1.0), 4.0)
        assert tk.eval(0.5, 0.5) == 1.0

    def test_outside(self):
        tk = truncate(ConstantKernel(1.0), 4.0)
        assert tk.eval(5.0, 0.5) == 0.0

    def test_sup_bound_singular(self):
        ker = SingularProductKernel(k=1.0, sigma=0.5, allow_large_sigma=True)
        tk = truncate(ker, 10.0)
        g = np.geomspace(0.1, 10.0, 200)
        vals = tk.eval(g[:, None], g[None, :])
        assert vals.max() <= 2.0 * ker.k * 10.0**3  # 2 k n^(2+2s), s = 1/2

    def test_mask_consistency(self):
        ker = SingularProductKernel(k=1.0, sigma=0.2)
        tk = truncate(ker, 8.0)
        rng = np.random.default_rng(8)
        mu = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 4000))
        nu = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 4000))
        tv = tk.eval(mu, nu)
        bv = ker.eval(mu, nu)
        assert np.all(tv <= bv)
        inside = (mu >= 1 / 8) & (mu <= 8) & (nu >= 1 / 8) & (nu <= 8)
        assert np.array_equal(tv[inside], bv[inside])
        assert np.all(tv[~inside] == 0.0)

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
        tk = truncate(base, 50.0)
        factors = tk.factors(x)
        assert len(factors) == {"constant": 1, "singular_product": 1, "additive": 2}[base.family]
        m, j = np.tril_indices(x.size)
        got = sum(f[m] * g[j] for f, g in factors)
        expect = tk.eval(x[m], x[j])
        assert np.all(np.abs(got - expect) <= 1e-14 * expect)
        assert all(np.all(f >= 0.0) and np.all(g >= 0.0) for f, g in factors)

    def test_box_indicator(self):
        tk = truncate(AdditiveKernel(), 4.0)
        x = np.array([0.1, 0.25, 1.0, 4.0, 5.0])
        inside = np.array([False, True, True, True, False])
        for f, g in tk.factors(x):
            assert np.all(f[~inside] == 0.0) and np.all(g[~inside] == 0.0)
            assert np.all(f[inside] > 0.0) and np.all(g[inside] > 0.0)

    def test_no_factors(self):
        class Exponential(Kernel):
            def _rate(self, lo, hi):
                return np.exp(-(lo + hi))

        nodes = np.geomspace(0.1, 10.0, 5)
        x = np.geomspace(0.2, 5.0, 7)
        for base in (Exponential(k=1.0),
                     TabulatedKernel(nodes, np.ones((5, 5)))):
            assert base.factors(x) is None
            assert truncate(base, 10.0).factors(x) is None

    def test_sup_bound_asserted(self):
        # 2 k n^(2+2s) = 8 here, below the rate: factors fail like eval
        tk = truncate(ConstantKernel(100.0, k=1.0), 2.0)
        with pytest.raises(AssertionError):
            tk.eval(1.0, 1.0)
        with pytest.raises(AssertionError):
            tk.factors(np.array([1.0]))

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(DomainError):
            truncate(ConstantKernel(), 4.0).factors(np.array([1.0, 0.0]))


class TestTabulated:
    def test_round_trip_csv(self, tmp_path):
        nodes = np.geomspace(0.01, 100.0, 12)
        path = tmp_path / "kernel.csv"
        with open(path, "w") as fh:
            fh.write("mu,nu,lambda\n")
            for m in nodes:
                for u in nodes:
                    fh.write(f"{m:.17g},{u:.17g},{np.exp(-(m + u)):.17g}\n")
        ker = TabulatedKernel.from_csv(path, k=1.0)
        # exact at the nodes
        assert ker.eval(nodes[3], nodes[7]) == pytest.approx(
            np.exp(-(nodes[3] + nodes[7])), rel=1e-12
        )
        # interpolated values stay within neighboring node values
        mid = np.sqrt(nodes[3] * nodes[4])
        v = ker.eval(mid, nodes[7])
        lo = np.exp(-(nodes[4] + nodes[7]))
        hi = np.exp(-(nodes[3] + nodes[7]))
        assert lo <= v <= hi

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,1,1\n")
        with pytest.raises(Exception):
            TabulatedKernel.from_csv(path)

    @pytest.mark.parametrize("where", ["node", "table"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, where, bad):
        nodes = np.geomspace(0.1, 10.0, 4)
        table = np.ones((4, 4))
        if where == "node":
            nodes[-1] = bad
        else:
            table[1, 2] = bad
        with pytest.raises(ConfigError):
            TabulatedKernel(nodes, table)


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
