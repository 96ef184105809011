import datetime
import io
import json
import logging
import math
import os
import pickle
import re
import signal
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvol import cli, errors, tables
from mfvol import garch_midas as gm

from oracles import (
    beta_weights_naive,
    filter_naive,
    garch11_filter,
    garch11_loglik,
    loglik_naive,
    monthly_rv_naive,
)


def make_params(J=2, mu=0.05, alpha=0.08, beta=0.82, m=0.1):
    theta = np.array([0.6, -0.3][:J])
    w2 = np.array([5.0, 2.5][:J])
    return gm.MidasParams(mu=mu, alpha=alpha, beta=beta, m=m,
                          theta=theta, w2=w2)


def make_data(months=18, days=15, J=2, K=6, seed=11):
    rng = np.random.default_rng(seed)
    n = months * days
    return gm.MidasData(
        returns=rng.normal(0.05, 1.0, n),
        month_index=np.repeat(np.arange(months), days),
        covariates=rng.standard_normal((months, J)),
    )


class TestBetaWeights:
    def test_matches_oracle_on_grid(self):
        for K in (1, 2, 5, 12, 36):
            for w1 in (1.0, 1.5, 3.0):
                for w2 in (1.0, 1.2, 4.0, 60.0):
                    got = gm.beta_weights(K, w1, w2)
                    want = beta_weights_naive(K, w1, w2)
                    assert np.allclose(got, want, rtol=0, atol=1e-14), \
                        (K, w1, w2)

    def test_single_lag_is_unit(self):
        assert gm.beta_weights(1, 1.0, 63.0).tolist() == [1.0]

    def test_monotone_decay_for_unit_w1(self):
        w = gm.beta_weights(12, 1.0, 4.0)
        assert np.all(np.diff(w) < 0)

    def test_flat_when_both_unit(self):
        w = gm.beta_weights(7, 1.0, 1.0)
        assert np.allclose(w, 1.0 / 7.0, atol=1e-15)

    def test_bad_parameters_rejected(self):
        with pytest.raises(errors.InputError, match="n_lags must be >= 1"):
            gm.beta_weights(0, 1.0, 2.0)
        with pytest.raises(errors.InputError, match="need w1 >= 1 and w2 >= 1"):
            gm.beta_weights(5, 0.5, 2.0)
        with pytest.raises(errors.InputError, match="need w1 >= 1 and w2 >= 1"):
            gm.beta_weights(5, 1.0, 0.0)

    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=1.0, max_value=20.0),
           st.floats(min_value=1.0, max_value=300.0))
    @settings(max_examples=80, deadline=None)
    def test_simplex_property(self, K, w1, w2):
        w = gm.beta_weights(K, w1, w2)
        assert len(w) == K
        assert np.all(w >= 0)
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-9)


class TestLagStructure:
    def test_too_few_months_rejected(self):
        data = make_data(months=5, K=6)
        spec = gm.MidasSpec(n_lags=6, n_covariates=2)
        with pytest.raises(errors.InputError,
                           match="5 months cannot support 6 lags"):
            gm.filter_volatility(spec, make_params(), data)


class TestFilter:
    @pytest.mark.parametrize("J,link,mode", [
        (1, "log", "exogenous"),
        (2, "log", "exogenous"),
        (1, "identity", "rv-window"),
        (1, "log", "rv-window"),
    ])
    def test_matches_loop_oracle(self, J, link, mode):
        K = 6
        data = make_data(J=J, K=K)
        params = make_params(J=J, m=0.4 if link == "identity" else 0.1)
        spec = gm.MidasSpec(n_lags=K, mode=mode, n_covariates=J,
                            tau_link=link)
        filt = gm.filter_volatility(spec, params, data)
        if mode == "rv-window":
            X = [[v] for v in monthly_rv_naive(
                data.returns.tolist(), data.month_index.tolist())]
        else:
            X = data.covariates.tolist()
        days, tau, g, h = filter_naive(
            params.mu, params.alpha, params.beta, params.m,
            params.theta.tolist(), params.w1.tolist(), params.w2.tolist(),
            data.returns.tolist(), data.month_index.tolist(), X, K, link)
        assert filt.day_slice == slice(days[0], days[-1] + 1)
        assert np.allclose(filt.tau, tau, rtol=1e-10, atol=1e-12)
        assert np.allclose(filt.g, g, rtol=1e-10, atol=1e-12)
        assert np.allclose(filt.h, h, rtol=1e-10, atol=1e-12)

    def test_g_starts_at_one(self):
        data = make_data()
        filt = gm.filter_volatility(gm.MidasSpec(n_lags=6, n_covariates=2),
                                    make_params(), data)
        assert filt.g[0] == 1.0

    def test_g_converges_to_unit_mean_without_shocks(self):
        params = make_params(J=1, mu=0.0)
        g = gm._short_run(params.alpha, params.beta, np.zeros(3900))
        omega = 1.0 - params.alpha - params.beta
        assert g[-1] == pytest.approx(omega / (1.0 - params.beta), rel=1e-9)

    def test_identity_link_rejects_nonpositive_tau(self):
        data = make_data(J=1)
        params = make_params(J=1, m=0.01)
        params.theta = np.array([-50.0])
        spec = gm.MidasSpec(n_lags=6, mode="rv-window", tau_link="identity")
        with pytest.raises(errors.NumericalError, match="tau non-positive"):
            gm.filter_volatility(spec, params, data)


    @pytest.mark.parametrize("field, value", [
        ("alpha", math.nan), ("beta", math.nan), ("mu", math.nan),
        ("m", math.inf), ("theta", [math.nan, 0.1]), ("w1", [1.0, math.inf]),
        ("w2", [math.nan]),
    ])
    def test_non_finite_parameter_rejected(self, field, value):
        J = 1 if field == "w2" else 2
        params = make_params(J=J)
        setattr(params, field, np.atleast_1d(value) if isinstance(value, list)
                else value)
        with pytest.raises(errors.InputError,
                           match="every parameter must be finite"):
            gm.filter_volatility(gm.MidasSpec(n_lags=6, n_covariates=J),
                                 params, make_data(J=J))


class TestShortRunScan:
    # fixed before the scan was written: the blocked scan may differ
    # from the sequential loop by rounding only
    RTOL = 1e-13
    B = gm._SCAN_BLOCK

    @staticmethod
    def loop(params, returns, tau):
        g = [1.0]
        omega = 1.0 - params.alpha - params.beta
        for i in range(1, len(returns)):
            shock = (returns[i - 1] - params.mu) ** 2 / tau[i - 1]
            g.append(omega + params.alpha * shock + params.beta * g[-1])
        return np.array(g)

    @staticmethod
    def scan(params, returns, tau):
        return gm._short_run(params.alpha, params.beta,
                             (returns - params.mu) ** 2 / tau)

    @staticmethod
    def panel(n, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(0.05, 1.0, n), np.exp(rng.normal(0.0, 0.5, n))

    @pytest.mark.parametrize("beta", [0.0, 1e-12, 0.5, 0.999, 1.0 - 1e-8])
    def test_matches_plain_loop(self, beta):
        params = make_params(J=1, alpha=min(0.05, 0.5 * (1.0 - beta)),
                             beta=beta)
        for n in (1, 2, self.B - 1, self.B, self.B + 1, 2300):
            returns, tau = self.panel(n)
            got = self.scan(params, returns, tau)
            want = self.loop(params, returns.tolist(), tau.tolist())
            assert got.shape == (n,)
            assert got[0] == 1.0
            np.testing.assert_allclose(got, want, rtol=self.RTOL, atol=0)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.999])
    def test_no_output_depends_on_a_later_input(self, beta):
        params = make_params(J=1, alpha=min(0.05, 0.5 * (1.0 - beta)),
                             beta=beta)
        returns, tau = self.panel(2300, seed=4)
        full = self.scan(params, returns, tau)
        for n in (1, 2, self.B - 1, self.B, self.B + 1, 1000, 2299):
            # changing later days leaves every earlier output's bits ...
            moved = returns.copy()
            moved[n:] *= 40.0
            assert self.scan(params, moved, tau)[:n + 1].tobytes() \
                == full[:n + 1].tobytes(), n
            # ... and extending the input moves none by more than rounding
            # (BLAS may take a different route for a single block)
            head = self.scan(params, returns[:n], tau[:n])
            np.testing.assert_allclose(head, full[:n], rtol=1e-15, atol=0)


class TestNelderMead:
    """The in-package simplex search against scipy's, bit for bit."""

    @staticmethod
    def same_as_scipy(fun, x0, **options):
        from scipy.optimize import minimize

        ours = gm._nelder_mead(fun, x0, **options)
        ref = minimize(fun, x0, method="Nelder-Mead",
                       options=dict(options, adaptive=False))
        assert ours.x.tobytes() == ref.x.tobytes()
        assert np.float64(ours.fun).tobytes() == \
            np.float64(ref.fun).tobytes()
        assert (ours.nit, ours.nfev, ours.success) == \
            (ref.nit, ref.nfev, ref.success)
        for a, b in zip(ours.final_simplex, ref.final_simplex):
            assert a.tobytes() == b.tobytes()
        return ours

    @staticmethod
    def rosen(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                            + (1.0 - x[:-1]) ** 2))

    TIGHT = {"maxiter": 5000, "maxfev": 10000, "xatol": 1e-8, "fatol": 1e-8}

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0, 0.0]])
    def test_rosenbrock_2d(self, x0):
        res = self.same_as_scipy(self.rosen, np.array(x0), **self.TIGHT)
        assert res.success
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_rosenbrock_8d(self):
        x0 = np.array([1.3, 0.7, 0.8, 1.9, 1.2, 0.0, -0.5, 1.1])
        self.same_as_scipy(self.rosen, x0, **self.TIGHT)

    def test_penalty_region(self):
        # a wall of equal PENALTY values, hit by the first simplex too
        def walled(x):
            return gm.PENALTY if x[0] + x[1] > 1.02 else self.rosen(x)
        res = self.same_as_scipy(walled, np.array([0.5, 0.5]), **self.TIGHT)
        assert res.fun < gm.PENALTY

    def test_midas_objective(self):
        spec = gm.MidasSpec(n_lags=3, n_covariates=1)
        true = gm.MidasParams(mu=0.05, alpha=0.08, beta=0.85, m=0.2,
                              theta=np.array([0.7]), w2=np.array([4.0]))
        data, _, _ = gm.simulate(spec, true, months=14, days_per_month=15,
                                 seed=2)
        objective = gm._objective(spec, data, gm._panel(spec, data))
        start = gm._pack(gm._default_init(spec, data), spec)
        res = self.same_as_scipy(objective, start, maxiter=3000,
                                 maxfev=6000, xatol=1e-8, fatol=1e-8)
        assert res.success

    @pytest.mark.parametrize("maxiter,maxfev", [(40, 10000), (5000, 37),
                                                (5000, 2), (1, 100)])
    def test_budget_exhausted(self, maxiter, maxfev):
        x0 = np.array([-1.2, 1.0, 0.5])
        res = self.same_as_scipy(self.rosen, x0, maxiter=maxiter,
                                 maxfev=maxfev, xatol=1e-8, fatol=1e-8)
        assert not res.success
        assert res.nit == maxiter or res.nfev == maxfev


class TestObjective:
    """The fit's objective costs PENALTY for a vector outside the model's
    domain and lets every other error through."""

    SPEC = gm.MidasSpec(n_lags=3, n_covariates=1)

    @pytest.fixture
    def setup(self):
        data = make_data(J=1, K=3)
        objective = gm._objective(self.SPEC, data, gm._panel(self.SPEC, data))
        start = gm._pack(gm._default_init(self.SPEC, data), self.SPEC)
        return data, objective, start

    def test_a_nan_vector_costs_the_penalty(self, setup):
        _, objective, start = setup
        assert objective(start) < gm.PENALTY
        u = start.copy()
        u[0] = math.nan
        assert objective(u) == gm.PENALTY

    def test_degenerate_beta_weights_cost_the_penalty(self, setup):
        data, objective, start = setup
        u = start.copy()
        u[5] = 30.0     # w2's logit: 1 - k/K raised to about 1e13 is 0
        with pytest.raises(errors.InputError, match="degenerate weights"):
            gm.log_likelihood(self.SPEC, gm._unpack(u, self.SPEC), data)
        assert objective(u) == gm.PENALTY

    def test_any_other_error_propagates(self, setup, monkeypatch):
        _, objective, start = setup

        def broken(*args):
            raise TypeError("not a domain error")
        monkeypatch.setattr(gm, "log_likelihood", broken)
        with pytest.raises(TypeError, match="not a domain error"):
            objective(start)


class TestLikelihood:
    def test_matches_loop_oracle(self):
        K = 6
        data = make_data(K=K)
        params = make_params()
        spec = gm.MidasSpec(n_lags=K, n_covariates=2)
        got = gm.log_likelihood(spec, params, data)
        want = loglik_naive(
            params.mu, params.alpha, params.beta, params.m,
            params.theta.tolist(), params.w1.tolist(), params.w2.tolist(),
            data.returns.tolist(), data.month_index.tolist(),
            data.covariates.tolist(), K, "log")
        assert got == pytest.approx(want, rel=1e-13)

    def test_warmup_months_excluded(self):
        K = 6
        data = make_data(K=K)
        spec = gm.MidasSpec(n_lags=K, n_covariates=2)
        params = make_params()
        tampered = gm.MidasData(
            returns=np.concatenate([data.returns[:K * 15] + 5.0,
                                    data.returns[K * 15:]]),
            month_index=data.month_index,
            covariates=data.covariates,
        )
        # warm-up returns only enter through covariate lags, which are
        # exogenous here, so the likelihood must not move
        assert gm.log_likelihood(spec, params, tampered) == \
            gm.log_likelihood(spec, params, data)


class TestNestedGarch:
    def test_theta_zero_filter_equals_plain_garch(self):
        K = 4
        data = make_data(months=14, days=12, J=1, K=K, seed=5)
        spec = gm.MidasSpec(n_lags=K, mode="rv-window", tau_link="identity")
        for m in (0.3, 0.8, 1.7):
            params = gm.MidasParams(mu=0.02, alpha=0.09, beta=0.85, m=m,
                                    theta=np.array([0.0]),
                                    w2=np.array([2.0]))
            filt = gm.filter_volatility(spec, params, data)
            r = data.returns[filt.day_slice]
            omega = m * (1.0 - params.alpha - params.beta)
            h_plain = garch11_filter(params.mu, omega, params.alpha,
                                     params.beta, r)
            assert np.allclose(filt.h, h_plain, rtol=0, atol=1e-12)
            ll = gm.log_likelihood(spec, params, data)
            ll_plain = garch11_loglik(params.mu, omega, params.alpha,
                                      params.beta, r)
            assert ll == pytest.approx(ll_plain, abs=1e-10)


class TestData:
    def test_month_index_must_be_contiguous(self):
        with pytest.raises(errors.InputError, match="sorted and contiguous"):
            gm.MidasData(returns=np.ones(4),
                         month_index=np.array([0, 0, 2, 2]))
        with pytest.raises(errors.InputError, match="sorted and contiguous"):
            gm.MidasData(returns=np.ones(4),
                         month_index=np.array([1, 1, 2, 2]))

    def test_covariate_rows_must_match_months(self):
        with pytest.raises(errors.InputError,
                           match="covariates have 3 rows, panel spans 2"):
            gm.MidasData(returns=np.ones(4),
                         month_index=np.array([0, 0, 1, 1]),
                         covariates=np.ones((3, 1)))

    def test_prefix_restricts_months(self):
        data = make_data(months=10, days=5)
        cut = data.prefix(23)
        assert cut.n_months == 5
        assert len(cut.returns) == 23
        assert cut.covariates.shape[0] == 5


class TestSimulate:
    def test_shapes_and_modeled_start(self):
        spec = gm.MidasSpec(n_lags=6, n_covariates=2)
        data, true, day_variance = gm.simulate(
            spec, make_params(), months=15, days_per_month=10, seed=3)
        assert len(data.returns) == 150
        assert true.day_slice == slice(60, 150)
        assert len(true.tau) == 90
        assert len(day_variance) == 150
        assert data.covariates.shape == (15, 2)

    def test_truth_equals_refilter(self):
        spec = gm.MidasSpec(n_lags=6, n_covariates=2)
        data, true, _ = gm.simulate(spec, make_params(), months=20,
                                    days_per_month=21, seed=9)
        filt = gm.filter_volatility(spec, make_params(), data)
        assert filt.day_slice == true.day_slice
        assert np.allclose(filt.tau, true.tau, rtol=0, atol=1e-12)
        assert np.allclose(filt.g, true.g, rtol=0, atol=1e-12)
        assert np.allclose(filt.h, true.h, rtol=0, atol=1e-12)

    def test_rv_window_spec_rejected(self):
        spec = gm.MidasSpec(n_lags=5, mode="rv-window", tau_link="identity")
        params = make_params(J=1, m=0.9)
        with pytest.raises(errors.InputError,
                           match="only exogenous mode is simulated"):
            gm.simulate(spec, params, months=12, days_per_month=8, seed=4)

    def test_same_seed_reproduces(self):
        spec = gm.MidasSpec(n_lags=6, n_covariates=2)
        a_data, a_true, _ = gm.simulate(spec, make_params(), months=12, seed=5)
        b_data, b_true, _ = gm.simulate(spec, make_params(), months=12, seed=5)
        assert np.array_equal(a_data.returns, b_data.returns)
        assert np.array_equal(a_true.h, b_true.h)

    def test_multiplier_scales_day_variance(self):
        spec = gm.MidasSpec(n_lags=3, n_covariates=1)
        params = make_params(J=1)
        mult = np.full(8 * 21, 4.0)
        _, _, base = gm.simulate(spec, params, months=8, seed=6)
        _, _, scaled = gm.simulate(spec, params, months=8, seed=6,
                                   day_var_multiplier=mult)
        # identical randomness, four times the variance on day one
        assert scaled[0] == pytest.approx(4.0 * base[0], rel=1e-12)

    def test_multiplier_must_be_positive(self):
        spec = gm.MidasSpec(n_lags=3, n_covariates=1)
        with pytest.raises(errors.InputError,
                           match="variance multipliers must be positive"):
            gm.simulate(spec, make_params(J=1), months=8,
                        day_var_multiplier=np.zeros(8 * 21))


class TestFit:
    def test_recovers_parameters_roughly(self):
        spec = gm.MidasSpec(n_lags=6, n_covariates=1)
        true = gm.MidasParams(mu=0.05, alpha=0.08, beta=0.85, m=0.2,
                              theta=np.array([0.7]), w2=np.array([4.0]))
        data, _, _ = gm.simulate(spec, true, months=120, days_per_month=21,
                                 seed=1)
        fit = gm.fit(spec, data, n_restarts=2, seed=0)
        assert fit.convergence["restarts"] >= 1
        assert abs(fit.params.alpha - true.alpha) < 0.08
        assert abs(fit.params.beta - true.beta) < 0.10
        assert abs(fit.params.mu - true.mu) < 0.05
        assert fit.params.theta[0] == pytest.approx(true.theta[0], abs=0.3)

    def test_fitted_likelihood_beats_truth(self):
        spec = gm.MidasSpec(n_lags=6, n_covariates=1)
        true = gm.MidasParams(mu=0.05, alpha=0.08, beta=0.85, m=0.2,
                              theta=np.array([0.7]), w2=np.array([4.0]))
        data, _, _ = gm.simulate(spec, true, months=60, days_per_month=21,
                                 seed=8)
        fit = gm.fit(spec, data, n_restarts=2, seed=0)
        assert fit.log_lik >= gm.log_likelihood(spec, true, data) - 1e-6

    def test_theta_zero_matches_independent_garch_mle(self):
        rng = np.random.default_rng(14)
        n = 2500
        mu, omega, alpha, beta = 0.03, 0.04, 0.10, 0.80
        r = np.empty(n)
        h = omega / (1 - alpha - beta)
        for i in range(n):
            r[i] = mu + math.sqrt(h) * rng.standard_normal()
            h = omega + alpha * (r[i] - mu) ** 2 + beta * h
        # a covariate that is zero every month adds theta * 0 to log tau,
        # so tau is exp(m) and the model is a plain GARCH(1,1)
        data = gm.MidasData(returns=r,
                            month_index=np.repeat(np.arange(n // 25), 25),
                            covariates=np.zeros((n // 25, 1)))
        spec = gm.MidasSpec(n_lags=1)
        fit = gm.fit(spec, data, n_restarts=3, seed=0)
        (mu_o, om_o, al_o, be_o), ll_o = __import__("oracles").fit_garch11(r[25:])
        m_fit = math.exp(fit.params.m)       # the log link's level
        assert fit.params.alpha == pytest.approx(al_o, abs=2e-3)
        assert fit.params.beta == pytest.approx(be_o, abs=2e-3)
        assert m_fit * (1 - fit.params.alpha - fit.params.beta) == \
            pytest.approx(om_o, abs=2e-3)
        assert fit.log_lik == pytest.approx(ll_o, abs=0.01)

    def test_constant_returns_rejected(self):
        data = gm.MidasData(returns=np.full(60, 0.05),
                            month_index=np.repeat(np.arange(6), 10),
                            covariates=np.random.default_rng(0)
                            .standard_normal((6, 1)))
        with pytest.raises(errors.InputError,
                           match="returns have zero variance"):
            gm.fit(gm.MidasSpec(n_lags=2, n_covariates=1), data)

    @pytest.mark.parametrize("option", [dict(n_restarts=0),
                                        dict(n_restarts=-3),
                                        dict(max_iter=0)])
    def test_restarts_and_iterations_at_least_one(self, option):
        data = make_data()
        with pytest.raises(errors.InputError, match=next(iter(option))):
            gm.fit(gm.MidasSpec(n_lags=6, n_covariates=2), data, **option)


def same_fit(a, b):
    """Two fits with the same parameters, likelihood and convergence
    record, to the bit."""
    assert json.dumps(a.params.to_json()) == json.dumps(b.params.to_json())
    assert np.float64(a.log_lik).tobytes() == np.float64(b.log_lik).tobytes()
    assert a.convergence == b.convergence
    return True


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestRestartWorkers:
    """gm.fit runs its restarts on every usable CPU, in the calling
    process and in forked workers, and fits the same to the bit."""

    SPEC = gm.MidasSpec(n_lags=3, n_covariates=1)

    @pytest.fixture(autouse=True)
    def time_bound(self):
        """A hung queue or worker fails its test after two minutes (the
        calling process then kills and reaps its workers)."""
        def expire(signum, frame):
            raise TimeoutError("the restarts took over 120 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture(scope="class")
    def data(self):
        true = gm.MidasParams(mu=0.05, alpha=0.08, beta=0.85, m=0.2,
                              theta=np.array([0.7]), w2=np.array([4.0]))
        return gm.simulate(self.SPEC, true, months=20, days_per_month=15,
                           seed=2)[0]

    @staticmethod
    def on_cpus(monkeypatch, cpus):
        """Make ``cpus`` CPUs usable; returns the list each fork of the
        calling process appends to."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()
        monkeypatch.setattr(os, "fork", counted_fork)
        return forks

    def fit(self, monkeypatch, data, n_restarts=5):
        """The fit and its per-restart results."""
        runs, run_restarts = [], gm._run_restarts

        def kept(run, n):
            runs.append(run_restarts(run, n))
            return runs[-1]
        monkeypatch.setattr(gm, "_run_restarts", kept)
        result = gm.fit(self.SPEC, data, n_restarts=n_restarts, seed=4)
        monkeypatch.setattr(gm, "_run_restarts", run_restarts)
        return result, runs[0]

    @pytest.mark.parametrize("cpus, n_restarts, n_forks",
                             [(2, 5, 1), (3, 5, 2), (8, 3, 2)])
    def test_same_fit_as_one_cpu(self, monkeypatch, data, cpus, n_restarts,
                                 n_forks):
        self.on_cpus(monkeypatch, 1)
        alone, alone_runs = self.fit(monkeypatch, data, n_restarts)
        forks = self.on_cpus(monkeypatch, cpus)
        shared, shared_runs = self.fit(monkeypatch, data, n_restarts)
        assert len(forks) == n_forks
        assert same_fit(shared, alone)
        assert len(shared_runs) == len(alone_runs) == n_restarts
        for a, b in zip(shared_runs, alone_runs):
            assert a.x.tobytes() == b.x.tobytes()
            assert np.float64(a.fun).tobytes() == np.float64(b.fun).tobytes()
            assert (a.nit, a.nfev, a.success) == (b.nit, b.nfev, b.success)
        assert no_child_left()

    @pytest.mark.parametrize("platform", ["one-restart", "no-fork"])
    def test_nothing_forks_where_nothing_can_share(self, monkeypatch, data,
                                                   platform):
        n_restarts = 1 if platform == "one-restart" else 3
        self.on_cpus(monkeypatch, 1)
        alone, _ = self.fit(monkeypatch, data, n_restarts)
        forks = self.on_cpus(monkeypatch, 4)
        if platform == "no-fork":
            monkeypatch.delattr(os, "fork")
        assert same_fit(self.fit(monkeypatch, data, n_restarts)[0], alone)
        assert forks == [] and no_child_left()

    def test_a_worker_that_dies_costs_time_not_the_result(self, monkeypatch,
                                                          data):
        self.on_cpus(monkeypatch, 1)
        alone, _ = self.fit(monkeypatch, data)
        forks = self.on_cpus(monkeypatch, 2)
        caller, search, in_worker = os.getpid(), gm._nelder_mead, []

        def dies_after_one_restart(*args, **kwargs):
            if os.getpid() != caller:
                in_worker.append(1)
                if len(in_worker) > 1:
                    os._exit(1)
            return search(*args, **kwargs)
        monkeypatch.setattr(gm, "_nelder_mead", dies_after_one_restart)
        assert same_fit(self.fit(monkeypatch, data)[0], alone)
        assert len(forks) == 1 and no_child_left()

    def test_logs_one_line_per_restart_in_the_caller(self, monkeypatch,
                                                     data, caplog):
        self.on_cpus(monkeypatch, 2)
        caplog.set_level(logging.INFO, logger="mfvol.garch_midas")
        result, runs = self.fit(monkeypatch, data)
        line = re.compile(r"restart (\d+): (\d+) iterations, (\d+) "
                          r"evaluations, objective (\S+), (\S+) above the "
                          r"best$")
        found = [line.fullmatch(r.getMessage()) for r in caplog.records]
        assert all(found) and len(found) == len(runs) == 5
        assert {r.process for r in caplog.records} == {os.getpid()}
        for i, (m, run) in enumerate(zip(found, runs)):
            assert int(m[1]) == i
            assert (int(m[2]), int(m[3])) == (run.nit, run.nfev)
            assert float(m[4]) == pytest.approx(run.fun, abs=1e-6)
            assert float(m[5]) >= 0
        assert float(found[result.convergence["best_restart"]][5]) == 0

    @staticmethod
    def result(i):
        """A stand-in restart result that says which process ran it."""
        return gm._SimplexResult(x=np.array([float(i)]), fun=float(i),
                                 nit=os.getpid(), nfev=i, success=True,
                                 final_simplex=(np.zeros((2, 1)),
                                                np.zeros(2)))

    def test_a_queue_longer_than_a_pipe_holds(self, monkeypatch, tmp_path):
        # 20,000 eight-byte indices overfill a 64 KiB pipe, and each
        # worker's results overfill its own pipe before anyone reads them;
        # three workers share the queue with the caller on any host. What
        # the queue cannot take, the caller runs at the end.
        self.on_cpus(monkeypatch, 4)
        caller, started = os.getpid(), tmp_path / "worker-started"
        # every process appends each index it runs to one shared file
        ran = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT
                      | os.O_APPEND)

        def run(i):
            os.write(ran, gm._INDEX.pack(i))
            if os.getpid() != caller:
                started.touch()
            elif i == 0:                # let the worker take a share
                deadline = time.monotonic() + 30
                while not started.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            return self.result(i)
        n = 20_000
        try:
            results = gm._run_restarts(run, n)
        finally:
            os.close(ran)
        assert [r.nfev for r in results] == list(range(n))
        assert len({r.nit for r in results}) >= 2 and no_child_left()
        assert results[-1].nit == caller
        indices = [i for (i,) in gm._INDEX.iter_unpack(
            (tmp_path / "ran").read_bytes())]
        assert sorted(indices) == list(range(n))

    def test_an_error_in_the_caller_kills_the_workers(self, monkeypatch):
        self.on_cpus(monkeypatch, 3)
        caller = os.getpid()

        def run(i):
            if os.getpid() != caller:
                time.sleep(60)
            raise KeyboardInterrupt
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            gm._run_restarts(run, 5)
        assert time.monotonic() - start < 30 and no_child_left()

    def test_a_pipe_cut_short_or_garbled_keeps_what_came_whole(self):
        whole = pickle.dumps((1, self.result(1)))
        second = pickle.dumps((2, self.result(2)))
        for rest in (second[:-3], b"garbled" + second,
                     pickle.dumps((9, "x")) + second,
                     pickle.dumps((2, "not a result")) + second):
            found = gm._reported(io.BytesIO(whole + rest), n=5)
            assert list(found) == [1] and found[1].nit == os.getpid()

    @pytest.fixture(scope="class")
    def factors(self, scenario_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("factors")
        assert cli.main(["rv", "--intraday", str(scenario_dir / "intraday.csv"),
                         "--out-csv", str(out / "rv.csv"),
                         "--out-sidecar", str(out / "rv_lambda.json")]) == 0
        assert cli.main(["pca", "--daily", str(scenario_dir / "daily.csv"),
                         "--attention", str(scenario_dir / "attention.csv"),
                         "--monthly", str(scenario_dir / "monthly.csv"),
                         "--rv", str(out / "rv.csv"),
                         "--out-dir", str(out)]) == 0
        return out / "factors.csv"

    def midas_fit(self, factors, out, *flags):
        return cli.main(["midas-fit", "--factors", str(factors),
                         "--n-lags", "6", "--restarts", "3", *flags,
                         "--out-fit", str(out / "midas_fit.json"),
                         "--out-h", str(out / "h.csv")])

    def test_midas_fit_leaves_stderr_empty(self, monkeypatch, factors,
                                           tmp_path, capfd):
        # CPython 3.12+ warns at a fork of a process with threads, as
        # OpenBLAS's may be; the warning must not reach stderr
        forks = self.on_cpus(monkeypatch, 2)
        fork = os.fork

        def warning_fork():
            warnings.warn("This process is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.",
                          DeprecationWarning, stacklevel=2)
            return fork()
        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.midas_fit(factors, tmp_path) == 0
        assert caught == []
        assert len(forks) == 1 and no_child_left()
        assert capfd.readouterr().err == ""

    def test_failed_midas_fit_leaves_no_process(self, monkeypatch, factors,
                                                tmp_path, capfd):
        forks = self.on_cpus(monkeypatch, 2)
        assert self.midas_fit(factors, tmp_path, "--max-iter", "1") == 3
        assert capfd.readouterr().err == ("numerical error: no Nelder-Mead "
                                          "restart converged to a finite "
                                          "optimum\n")
        assert len(forks) == 1 and no_child_left()


class TestPersistenceFiles:
    def test_fit_roundtrip(self, tmp_path):
        spec = gm.MidasSpec(n_lags=4, n_covariates=2)
        data = make_data(months=14, K=4)
        fit = gm.fit(spec, data, n_restarts=1, seed=0)
        path = str(tmp_path / "fit.json")
        gm.write_fit(fit, path)
        with open(path) as fh:
            doc = json.load(fh)
        spec2 = gm.MidasSpec(**doc["spec"])
        params2 = gm.MidasParams(**doc["params"])
        assert spec2 == spec
        assert params2.alpha == fit.params.alpha
        assert params2.theta.tolist() == fit.params.theta.tolist()
        assert doc["log_likelihood"] == fit.log_lik

    def test_h_roundtrip(self, tmp_path):
        spec = gm.MidasSpec(n_lags=6, n_covariates=2)
        data = make_data()
        dates = [str(datetime.date(2000, 1, 1) + datetime.timedelta(days=i))
                 for i in range(len(data.returns))]
        filt = gm.filter_volatility(spec, make_params(), data)
        path = str(tmp_path / "h.csv")
        cli.write_h(dates, filt, path)
        back = tables.read(path, cli.H_COLUMNS)
        assert back["date"] == dates[filt.day_slice]
        for name in ("tau", "g", "h"):
            assert np.array_equal(back[name], getattr(filt, name))
