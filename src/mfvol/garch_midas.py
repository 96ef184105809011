"""GARCH-MIDAS: daily conditional variance with monthly drivers.

The daily return model is

    r_i = mu + sqrt(tau_{t(i)} * g_i) * eps_i,     eps_i ~ N(0, 1)

where ``t(i)`` is the month of day ``i``. The long-run component tau
moves at monthly frequency and loads K lagged monthly covariates
through a normalized beta-polynomial weight scheme; the short-run
component g is a unit-mean GARCH(1,1)-style recursion in the lagged
squared return innovation:

    g_i = (1 - alpha - beta) + alpha * (r_{i-1} - mu)^2 / tau_{t(i-1)}
          + beta * g_{i-1},        g_0 = 1.

Using the previous day's innovation keeps the filter causal. The
intercept is pinned to 1 - alpha - beta so that g has unconditional
mean one and the level of variance is carried by tau alone.

Two tau links are supported: ``exp`` of the affine combination (the
default for exogenous covariates, sign-unconstrained) and the identity
(classic realized-volatility windows, where positivity must hold).
Both filter and fit; :func:`simulate` draws the exogenous model only.

Estimation is maximum likelihood over an unconstrained
reparameterization, optimized with Nelder-Mead simplex search from
several seeded starting points. The restarts run on every usable CPU:
the calling process and one forked worker per further CPU take them
from one queue, and the fit is the same to the bit however many CPUs
run it.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import pickle
import signal
import struct
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tables
from .errors import InputError, NumericalError
from .realized_vol import monthly_rv

log = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)
PENALTY = 1e15
MIN_PERSISTENCE = 1e-12
MAX_PERSISTENCE = 1.0 - 1e-8


@dataclass(frozen=True)
class MidasSpec:
    """Structural choices of the model, fixed before estimation.

    ``mode`` selects the monthly covariates: "exogenous" takes them
    from the data container, "rv-window" builds them as within-month
    realized variance of the daily returns themselves. The identity
    tau link is only permitted in rv-window mode, where the covariate
    is nonnegative by construction.
    """

    n_lags: int = 12
    mode: str = "exogenous"
    n_covariates: int = 1
    tau_link: str = ""
    free_w1: bool = False

    def __post_init__(self):
        if self.mode not in ("exogenous", "rv-window"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.n_lags < 1:
            raise InputError(f"n_lags must be >= 1, got {self.n_lags}")
        if self.mode == "rv-window" and self.n_covariates != 1:
            raise InputError("rv-window mode implies a single covariate")
        if self.n_covariates < 1:
            raise InputError("need at least one covariate")
        link = self.tau_link or ("identity" if self.mode == "rv-window"
                                 else "log")
        if link not in ("log", "identity"):
            raise InputError(f"unknown tau link {link!r}")
        if link == "identity" and self.mode != "rv-window":
            raise InputError("identity tau link requires rv-window mode")
        object.__setattr__(self, "tau_link", link)


@dataclass
class MidasParams:
    """Parameter vector; ``theta``/``w2``/``w1`` hold one entry per covariate."""

    mu: float
    alpha: float
    beta: float
    m: float
    theta: np.ndarray
    w2: np.ndarray
    w1: np.ndarray | None = None

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.w2 = np.atleast_1d(np.asarray(self.w2, dtype=float))
        if self.w1 is None:
            self.w1 = np.ones_like(self.w2)
        else:
            self.w1 = np.atleast_1d(np.asarray(self.w1, dtype=float))

    def validate(self, spec: MidasSpec) -> None:
        theta, w1, w2 = self.theta.tolist(), self.w1.tolist(), self.w2.tolist()
        if not all(map(math.isfinite, (self.mu, self.alpha, self.beta, self.m,
                                       *theta, *w1, *w2))):
            raise InputError("every parameter must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise InputError("alpha and beta must be nonnegative")
        if self.alpha + self.beta >= 1:
            raise InputError(
                f"alpha + beta = {self.alpha + self.beta} must be < 1")
        J = len(theta)
        if len(w2) != J or len(w1) != J:
            raise InputError("theta, w1 and w2 must have equal length")
        if min(w1 + w2, default=1.0) < 1:
            raise InputError("weight shape parameters must be >= 1")
        if J != spec.n_covariates:
            raise InputError(
                f"expected {spec.n_covariates} covariates, got {J}")
        if spec.tau_link == "identity" and self.m <= 0:
            raise InputError("identity link requires a positive intercept m")

    def to_json(self) -> dict:
        return {
            "mu": self.mu, "alpha": self.alpha, "beta": self.beta,
            "m": self.m, "theta": self.theta.tolist(),
            "w1": self.w1.tolist(), "w2": self.w2.tolist(),
        }


@dataclass
class MidasData:
    """Daily returns with month structure and monthly covariates.

    ``month_index`` maps each day to a 0-based contiguous month id in
    chronological order. ``covariates`` has one row per month and is
    required in exogenous mode (ignored in rv-window mode).
    """

    returns: np.ndarray
    month_index: np.ndarray
    covariates: np.ndarray | None = None

    def __post_init__(self):
        self.returns = np.asarray(self.returns, dtype=float)
        self.month_index = np.asarray(self.month_index, dtype=np.int64)
        if self.returns.shape != self.month_index.shape:
            raise InputError("returns and month_index differ in length")
        if self.returns.size == 0:
            raise InputError("no days")
        steps = np.diff(self.month_index)
        if self.month_index[0] != 0 or np.any(steps < 0) or np.any(steps > 1):
            raise InputError(
                "month_index must be 0-based, sorted and contiguous")
        if self.covariates is not None:
            self.covariates = np.atleast_2d(
                np.asarray(self.covariates, dtype=float))
            if self.covariates.shape[0] != self.n_months:
                raise InputError(
                    f"covariates have {self.covariates.shape[0]} rows, "
                    f"panel spans {self.n_months} months")

    @property
    def n_months(self) -> int:
        return int(self.month_index[-1]) + 1

    def prefix(self, n_days: int) -> "MidasData":
        """Restrict to the first ``n_days`` rows (for train-only fits)."""
        if not (0 < n_days <= len(self.returns)):
            raise InputError(f"n_days out of range: {n_days}")
        idx = self.month_index[:n_days]
        n_months = int(idx[-1]) + 1
        return MidasData(
            returns=self.returns[:n_days].copy(),
            month_index=idx.copy(),
            covariates=None if self.covariates is None
            else self.covariates[:n_months].copy(),
        )


@dataclass
class MidasFiltered:
    """Conditional components over the modeled days.

    Days in the first ``n_lags`` months are warm-up: they only feed
    covariate lags and carry no tau/g/h values.
    """

    day_slice: slice
    tau: np.ndarray
    g: np.ndarray
    h: np.ndarray


@dataclass
class MidasFit:
    spec: MidasSpec
    params: MidasParams
    log_lik: float
    convergence: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Weight scheme and components
# ----------------------------------------------------------------------

def _lag_grid(n_lags: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``k/K`` and ``1 - k/K`` for k = 1..K, the bases of the
    beta weights. A single lag gets ``(1, 1)``, so it weighs one."""
    k = np.arange(1, n_lags + 1, dtype=float)[:, None] / n_lags
    return k, (1.0 - k if n_lags > 1 else k)


def _weights(grid: tuple[np.ndarray, np.ndarray], w1: np.ndarray,
             w2: np.ndarray) -> np.ndarray:
    """(K, J) beta weights, one column per ``(w1[j], w2[j])`` pair."""
    k, rest = grid
    raw = k ** (w1 - 1.0) * rest ** (w2 - 1.0)
    total = raw.sum(axis=0)
    if not total.min() > 0:
        raise InputError(f"degenerate weights for K={len(k)}, "
                         f"w1={w1.tolist()}, w2={w2.tolist()}")
    return raw / total


def beta_weights(n_lags: int, w1: float = 1.0, w2: float = 1.0) -> np.ndarray:
    """Normalized beta-polynomial lag weights.

    phi_k is proportional to (k/K)^(w1-1) * (1 - k/K)^(w2-1) for
    k = 1..K, rescaled to sum to one. With w1 = 1 the weights decay
    monotonically in the lag; larger w2 concentrates mass on the most
    recent month. A single lag always receives weight one.
    """
    if n_lags < 1:
        raise InputError(f"n_lags must be >= 1, got {n_lags}")
    if w1 < 1 or w2 < 1:
        raise InputError(f"need w1 >= 1 and w2 >= 1, got ({w1}, {w2})")
    return _weights(_lag_grid(n_lags), np.array([w1], dtype=float),
                    np.array([w2], dtype=float))[:, 0]


def _stacked_lags(covariates: np.ndarray, n_lags: int) -> np.ndarray:
    """(n_modeled_months, K, J) lag block for months K..M-1."""
    M, J = covariates.shape
    if M <= n_lags:
        raise InputError(f"{M} months cannot support {n_lags} lags")
    return np.stack(
        [covariates[n_lags - k: M - k, :] for k in range(1, n_lags + 1)],
        axis=1)


@dataclass(frozen=True)
class _Panel:
    """What the filter needs of a panel that no parameter changes.

    ``lagged`` is the lag block flattened to (n_modeled_months, K * J),
    lag-major; ``start`` is the first modeled day; ``returns`` and
    ``month`` are the modeled days' returns and months, the latter
    counted from month K; ``grid`` is the beta weights' lag grid.
    """

    lagged: np.ndarray
    start: int
    returns: np.ndarray
    month: np.ndarray
    grid: tuple[np.ndarray, np.ndarray]


def _panel(spec: MidasSpec, data: MidasData) -> _Panel:
    lagged = _stacked_lags(_covariate_matrix(spec, data), spec.n_lags)
    start = int(np.searchsorted(data.month_index, spec.n_lags))
    if start >= len(data.returns):
        raise InputError("no days left after the lag warm-up")
    return _Panel(lagged=lagged.reshape(len(lagged), -1), start=start,
                  returns=data.returns[start:],
                  month=data.month_index[start:] - spec.n_lags,
                  grid=_lag_grid(spec.n_lags))


def _long_run_tau(spec: MidasSpec, params: MidasParams,
                  panel: _Panel) -> np.ndarray:
    """Monthly long-run variance of the modeled months. Under the
    identity link any non-positive tau raises NumericalError; the log
    link exponentiates instead."""
    phi = _weights(panel.grid, params.w1, params.w2)
    acc = panel.lagged @ (phi * params.theta).ravel() + params.m
    if spec.tau_link == "log":
        return np.exp(acc)
    if (acc <= 0).any():
        bad = int(np.flatnonzero(acc <= 0)[0])
        raise NumericalError(
            f"tau non-positive at modeled month {bad} ({acc[bad]:.6g})")
    return acc


# The short-run scan runs on blocks of B days. It raises beta to the
# powers 0..B and one more, whose entry it sets to zero; entry [s, t]
# of the index is the lag t - s on and above the diagonal and points
# at that zero below it.
_SCAN_BLOCK = 64
_SCAN_POWERS = np.arange(_SCAN_BLOCK + 2, dtype=float)
_SCAN_LAG = np.arange(_SCAN_BLOCK)[None, :] - np.arange(_SCAN_BLOCK)[:, None]
_SCAN_INDEX = np.where(_SCAN_LAG >= 0, _SCAN_LAG, _SCAN_BLOCK + 1)


def _linear_scan(x: np.ndarray, beta: float) -> np.ndarray:
    """y_i = x_i + beta * y_{i-1} with y_{-1} = 0, for 0 <= beta < 1,
    over whole blocks of B days; the caller pads the last block with
    zeros after the last day, so no output depends on a later input.

    Each block is one product with the upper-triangular Toeplitz
    matrix of beta's powers, [s, t] = beta^(t - s); one pass then
    carries each block's last value into the next block, scaled by
    beta^(t + 1).
    """
    p = beta ** _SCAN_POWERS
    p[-1] = 0.0
    y = x.reshape(-1, _SCAN_BLOCK) @ p.take(_SCAN_INDEX)
    if len(y) > 1:
        step = float(p[_SCAN_BLOCK])
        carries = np.empty(len(y) - 1)
        carry = 0.0
        for b, last in enumerate(y[:-1, -1].tolist()):
            carry = last + step * carry
            carries[b] = carry
        y[1:] += carries[:, None] * p[1:_SCAN_BLOCK + 1]
    return y.reshape(-1)


def _short_run(alpha: float, beta: float, shocks: np.ndarray) -> np.ndarray:
    """g over consecutive days from each day's standardized squared
    innovation: g_0 = 1, then the previous day's shock drives it."""
    n = len(shocks)
    x = np.zeros(-(-n // _SCAN_BLOCK) * _SCAN_BLOCK)
    x[0] = 1.0
    np.multiply(shocks[:-1], alpha, out=x[1:n])
    x[1:n] += 1.0 - alpha - beta
    return _linear_scan(x, beta)[:n]


def _components(spec: MidasSpec, params: MidasParams, panel: _Panel):
    """tau and g by modeled day, and the modeled days' squared
    innovations, for validated parameters."""
    tau = _long_run_tau(spec, params, panel)[panel.month]
    sq = (panel.returns - params.mu) ** 2
    g = _short_run(params.alpha, params.beta, sq / tau)
    return tau, g, sq


def filter_volatility(spec: MidasSpec, params: MidasParams,
                      data: MidasData) -> MidasFiltered:
    """Run the full two-component filter over the modeled days."""
    params.validate(spec)
    panel = _panel(spec, data)
    tau, g, _ = _components(spec, params, panel)
    return MidasFiltered(day_slice=slice(panel.start, len(data.returns)),
                         tau=tau, g=g, h=tau * g)


def _covariate_matrix(spec: MidasSpec, data: MidasData) -> np.ndarray:
    if spec.mode == "rv-window":
        rv = monthly_rv(data.returns, data.month_index)
        return rv[:, None]
    if data.covariates is None:
        raise InputError("exogenous mode needs a covariate matrix")
    if data.covariates.shape[1] != spec.n_covariates:
        raise InputError(
            f"data carries {data.covariates.shape[1]} covariates, "
            f"spec wants {spec.n_covariates}")
    return data.covariates


def log_likelihood(spec: MidasSpec, params: MidasParams,
                   data: MidasData, panel: _Panel | None = None) -> float:
    """Gaussian log likelihood summed over the modeled days. ``panel``
    holds the parameter-free parts of ``data`` for ``spec`` when the
    caller has built them already, as :func:`fit` does."""
    params.validate(spec)
    if panel is None:
        panel = _panel(spec, data)
    tau, g, sq = _components(spec, params, panel)
    h = tau * g
    ll = -0.5 * (len(h) * LOG_2PI + float(np.log(h).sum())
                 + float((sq / h).sum()))
    if not math.isfinite(ll):
        raise NumericalError(f"log likelihood is {ll}")
    return ll


# ----------------------------------------------------------------------
# Estimation
# ----------------------------------------------------------------------

def _pack(params: MidasParams, spec: MidasSpec) -> np.ndarray:
    p = params.alpha + params.beta
    p = min(max(p, MIN_PERSISTENCE), MAX_PERSISTENCE)
    share = params.alpha / p if p > 0 else 0.5
    share = min(max(share, MIN_PERSISTENCE), 1.0 - MIN_PERSISTENCE)
    u = [params.mu,
         math.log(p / (1.0 - p)),
         math.log(share / (1.0 - share)),
         math.log(params.m) if spec.tau_link == "identity" else params.m]
    u.extend(params.theta.tolist())
    u.extend(math.log(max(w2 - 1.0, 1e-10)) for w2 in params.w2)
    if spec.free_w1:
        u.extend(math.log(max(w1 - 1.0, 1e-10)) for w1 in params.w1)
    return np.array(u, dtype=float)


def _unpack(u: np.ndarray, spec: MidasSpec) -> MidasParams:
    J = spec.n_covariates
    mu, persistence, share, m = u[:4].tolist()
    p = 1.0 / (1.0 + math.exp(-min(max(persistence, -40.0), 40.0)))
    p = min(max(p, MIN_PERSISTENCE), MAX_PERSISTENCE)
    share = 1.0 / (1.0 + math.exp(-min(max(share, -40.0), 40.0)))
    if spec.tau_link == "identity":
        m = math.exp(min(m, 60.0))
    theta = u[4:4 + J].copy()
    w2 = 1.0 + np.exp(np.minimum(u[4 + J:4 + 2 * J], 30.0))
    w1 = 1.0 + np.exp(np.minimum(u[4 + 2 * J:4 + 3 * J], 30.0)) \
        if spec.free_w1 else np.ones(J)
    return MidasParams(mu=mu, alpha=p * share, beta=p * (1 - share),
                       m=m, theta=theta, w2=w2, w1=w1)


def _default_init(spec: MidasSpec, data: MidasData) -> MidasParams:
    r = data.returns
    var = float(np.var(r))
    m = max(var, 1e-8) if spec.tau_link == "identity" else math.log(max(var, 1e-8))
    J = spec.n_covariates
    return MidasParams(mu=float(np.mean(r)), alpha=0.05, beta=0.90, m=m,
                       theta=np.full(J, 0.1), w2=np.full(J, 3.0))


class _Exhausted(Exception):
    """The objective was asked for more than ``maxfev`` evaluations."""


@dataclass
class _SimplexResult:
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool
    final_simplex: tuple[np.ndarray, np.ndarray]


def _nelder_mead(fun, x0: np.ndarray, *, maxiter: int, maxfev: int,
                 xatol: float, fatol: float) -> _SimplexResult:
    """Minimize ``fun`` by the Nelder-Mead simplex method.

    A port of ``scipy.optimize.minimize(method="Nelder-Mead")`` without
    bounds and with the standard coefficients (``adaptive=False``): the
    same first simplex, the same moves in the same order, the same
    stopping rule and counts. Given the same ``fun`` it returns the
    same ``x``, ``fun``, ``nit``, ``nfev``, ``success`` and final simplex,
    bit for bit. ``fun`` must not modify its argument.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).flatten()
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y

    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return fun(x)

    fsim = np.full(N + 1, np.inf)
    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _Exhausted:
        pass
    # scipy sorts twice here, and an unstable sort may move ties twice
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:      # contract outside
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:                   # contract inside
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            nit += 1
        except _Exhausted:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return _SimplexResult(
        x=sim[0], fun=np.min(fsim), nit=nit, nfev=nfev,
        success=nfev < maxfev and nit < maxiter,
        final_simplex=(sim, fsim))


def _objective(spec: MidasSpec, data: MidasData, panel: _Panel):
    """The function the fit minimizes: the negative log likelihood of
    the unconstrained vector ``u``, or PENALTY where it is undefined."""
    def objective(u: np.ndarray) -> float:
        try:
            params = _unpack(u, spec)
            return -log_likelihood(spec, params, data, panel)
        # a vector outside the model's domain is an input error to a
        # caller, and a PENALTY value inside the search
        except (InputError, NumericalError, FloatingPointError,
                OverflowError):
            return PENALTY
    return objective


# Restart indices go through the queue as 8-byte records, one write
# each: a pipe takes a write that small whole or not at all, so a
# reader never sees part of a record.
_INDEX = struct.Struct("=Q")


def _restart_workers(n_restarts: int) -> int:
    """How many workers to fork for the restarts: one per usable CPU
    beyond the calling process's own, at most ``n_restarts - 1``, and
    none where the platform cannot fork or count its usable CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    return max(0, min(len(os.sched_getaffinity(0)) - 1, n_restarts - 1))


def _take(queue: int) -> int | None:
    """The next restart index from the queue, or None at its end."""
    record = os.read(queue, _INDEX.size)
    return _INDEX.unpack(record)[0] if len(record) == _INDEX.size else None


def _serve(run, queue: int, pipe: int, unused: list[int]):
    """A worker's whole life: run restarts from the queue and send each
    ``(index, result)`` through ``pipe``, pickled, until the queue ends.
    It never returns into the caller's code, and it writes nothing to
    the caller's stdout or stderr."""
    status = 1
    try:
        for fd in unused:
            os.close(fd)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        while (i := _take(queue)) is not None:
            record = memoryview(pickle.dumps((i, run(i))))
            while record:
                record = record[os.write(pipe, record):]
        status = 0
    finally:
        os._exit(status)


def _reported(fh, n: int) -> dict:
    """The results a worker sent, by restart index, up to the end of
    its pipe or the first record that is cut short or garbled."""
    found = {}
    while True:
        try:
            i, result = pickle.load(fh)
        except Exception:       # bytes cut short or garbled raise any kind
            return found
        if not (isinstance(i, int) and 0 <= i < n
                and isinstance(result, _SimplexResult)):
            return found
        found[i] = result


def _run_restarts(run, n: int) -> list:
    """``[run(i) for i in range(n)]``, run on the usable CPUs.

    Restarts 1 to ``n - 1`` go into a shared queue, a pipe, as far as it
    takes them without blocking, and the pipe is closed for writing
    before any worker is forked (see :func:`_restart_workers`). The
    calling process runs restart 0 and then takes indices from the
    queue until it ends, as does each worker. Afterwards the calling
    process runs every restart that no worker reported: one that did
    not fit in the queue, a failed fork, a worker that died or a pipe
    cut short costs time and never changes a result. Every worker is
    reaped, or killed and reaped, before this returns or raises.
    """
    n_workers = _restart_workers(n)
    if n_workers == 0:
        return [run(i) for i in range(n)]
    results = {}
    workers = []            # [pid, read end of its pipe]; pid 0 once reaped
    queue, feeder = os.pipe()
    try:
        try:
            os.set_blocking(feeder, False)
            with contextlib.suppress(BlockingIOError):
                for i in range(1, n):
                    os.write(feeder, _INDEX.pack(i))
        finally:
            os.close(feeder)        # a read past the last record ends
        for _ in range(n_workers):
            pipe, sink = os.pipe()
            try:
                with warnings.catch_warnings():
                    # CPython 3.12+ warns when it forks a process that
                    # has threads, such as OpenBLAS's
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(pipe)
                os.close(sink)
                break
            if pid == 0:
                # a worker keeps only the queue's read end and its sink
                _serve(run, queue, sink, [pipe, *(p for _, p in workers)])
            os.close(sink)
            workers.append([pid, pipe])
        results[0] = run(0)
        while (i := _take(queue)) is not None:
            results[i] = run(i)
        for worker in workers:
            # closing the pipe stops a worker that sent a garbled record
            with open(worker[1], "rb") as fh:
                worker[1] = -1
                for i, result in _reported(fh, n).items():
                    results.setdefault(i, result)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(worker[0], 0)
            worker[0] = 0
    finally:
        for pid, pipe in workers:
            if pipe >= 0:
                os.close(pipe)
            if pid:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
        os.close(queue)
    return [results[i] if i in results else run(i) for i in range(n)]


def fit(spec: MidasSpec, data: MidasData, n_restarts: int = 5,
        seed: int = 0, max_iter: int = 5000) -> MidasFit:
    """Maximum-likelihood estimation by seeded Nelder-Mead restarts.

    The first start is a moment-based default; the remaining
    ``n_restarts - 1`` starts perturb it in the unconstrained space
    with a seeded generator. The best converged restart wins;
    ties go to the earlier restart. The restarts run on the usable CPUs
    (see :func:`_run_restarts`), which changes no bit of the result.
    Each restart's iterations, evaluations and final objective, and how
    far that lies above the best, are logged at INFO.

    Raises
    ------
    InputError
        If ``n_restarts`` or ``max_iter`` is below 1, the returns are
        constant, or the panel is too short for the lags.
    NumericalError
        If no restart converges to a finite optimum.
    """
    if n_restarts < 1 or max_iter < 1:
        raise InputError(f"n_restarts and max_iter must be at least 1, got "
                         f"{n_restarts} and {max_iter}")
    if float(np.ptp(data.returns)) == 0.0:
        raise InputError("returns have zero variance")
    # built once for every evaluation; surfaces a panel too short for
    # the lags before any optimizer work
    panel = _panel(spec, data)

    start = _pack(_default_init(spec, data), spec)
    objective = _objective(spec, data, panel)
    rng = np.random.default_rng(seed)
    scale = 0.25 * np.ones_like(start)
    scale[1:3] = 1.0
    starts = [start, *(start + rng.normal(0.0, scale)
                       for _ in range(n_restarts - 1))]

    def restart(i: int) -> _SimplexResult:
        return _nelder_mead(objective, starts[i], maxiter=max_iter,
                            maxfev=2 * max_iter, xatol=1e-8, fatol=1e-8)

    results = list(enumerate(_run_restarts(restart, n_restarts)))

    usable = [(i, r) for i, r in results if r.success and r.fun < PENALTY / 2]
    if not usable:
        raise NumericalError(
            "no Nelder-Mead restart converged to a finite optimum")
    best_idx, best = min(usable, key=lambda pair: (pair[1].fun, pair[0]))
    for i, r in results:
        log.info("restart %d: %d iterations, %d evaluations, objective "
                 "%.6f, %.3g above the best%s", i, r.nit, r.nfev, r.fun,
                 r.fun - best.fun, "" if r.success else " (not converged)")
    params = _unpack(best.x, spec)
    params.validate(spec)
    fsim = best.final_simplex[1]
    return MidasFit(
        spec=spec,
        params=params,
        log_lik=-float(best.fun),
        convergence={
            "restarts": len(results),
            "converged_restarts": len(usable),
            "best_restart": best_idx,
            "iterations": int(best.nit),
            "function_evals": int(best.nfev),
            "terminal_spread": float(np.max(np.abs(fsim - fsim[0]))),
        },
    )


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------

def simulate(spec: MidasSpec, params: MidasParams, months: int,
             days_per_month: int = 21, seed: int = 0, cov_rho: float = 0.8,
             day_var_multiplier: np.ndarray | None = None
             ) -> tuple[MidasData, MidasFiltered, np.ndarray]:
    """Draw a panel from the exogenous log-link model: the panel, its
    true tau/g/h over the modeled days, and each day's variance.

    The first ``spec.n_lags`` months are warm-up: their returns are
    drawn at the covariate-free variance level exp(m) and exist so
    that every modeled month has a full lag window. The covariates
    follow stationary AR(1) processes with coefficient ``cov_rho`` and
    unit variance.

    ``day_var_multiplier`` scales the variance used to draw each day's
    return (length = total days). It models volatility sources outside
    the MIDAS system: the emitted tau/g/h remain the filter values
    implied by the realized returns, so refiltering the returns
    reproduces them exactly.
    """
    if spec.mode != "exogenous":
        raise InputError(
            f"only exogenous mode is simulated, got {spec.mode!r}")
    params.validate(spec)
    if months <= spec.n_lags:
        raise InputError(
            f"months must exceed n_lags={spec.n_lags}, got {months}")
    if days_per_month < 1:
        raise InputError("days_per_month must be >= 1")
    if not (-1.0 < cov_rho < 1.0):
        raise InputError(f"cov_rho must lie in (-1, 1), got {cov_rho}")

    rng = np.random.default_rng(seed)
    n_days = months * days_per_month
    month_index = np.repeat(np.arange(months), days_per_month)
    if day_var_multiplier is None:
        day_var_multiplier = np.ones(n_days)
    else:
        day_var_multiplier = np.asarray(day_var_multiplier, dtype=float)
        if day_var_multiplier.shape != (n_days,):
            raise InputError(f"multiplier must have length {n_days}")
        if np.any(day_var_multiplier <= 0):
            raise InputError("variance multipliers must be positive")

    J = spec.n_covariates
    innov_sd = math.sqrt(1.0 - cov_rho ** 2)
    X = np.empty((months, J))
    X[0] = rng.standard_normal(J)
    for t in range(1, months):
        X[t] = cov_rho * X[t - 1] + innov_sd * rng.standard_normal(J)

    eps = rng.standard_normal(n_days)
    base_var = math.exp(params.m)
    K = spec.n_lags
    start = K * days_per_month
    returns = np.empty(n_days)

    # warm-up months: covariate-free variance, g pinned at its mean
    warm = slice(0, start)
    returns[warm] = params.mu + np.sqrt(
        base_var * day_var_multiplier[warm]) * eps[warm]

    # tau of each modeled month from its K lagged covariates, lag 1 first
    phi = [beta_weights(K, float(params.w1[j]), float(params.w2[j]))
           for j in range(J)]
    month_tau = np.empty(months)
    for t in range(K, months):
        acc = params.m
        for j in range(J):
            acc += params.theta[j] * float(X[t - K:t, j][::-1] @ phi[j])
        month_tau[t] = math.exp(acc)

    omega = 1.0 - params.alpha - params.beta
    tau = month_tau[month_index[start:]]
    n_model = n_days - start
    g = np.empty(n_model)
    h = np.empty(n_model)
    day_var = np.empty(n_days)
    day_var[warm] = base_var * day_var_multiplier[warm]
    for i in range(n_model):
        day = start + i
        if i == 0:
            g[i] = 1.0
        else:
            shock = (returns[day - 1] - params.mu) ** 2 / tau[i - 1]
            g[i] = omega + params.alpha * shock + params.beta * g[i - 1]
        h[i] = tau[i] * g[i]
        day_var[day] = h[i] * day_var_multiplier[day]
        returns[day] = params.mu + math.sqrt(day_var[day]) * eps[day]

    return (MidasData(returns=returns, month_index=month_index,
                      covariates=X),
            MidasFiltered(day_slice=slice(start, n_days), tau=tau, g=g, h=h),
            day_var)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

def write_fit(fit_result: MidasFit, path: str) -> None:
    tables.write_json(path, {
        "spec": asdict(fit_result.spec),
        "params": fit_result.params.to_json(),
        "log_likelihood": fit_result.log_lik,
        "convergence": fit_result.convergence,
    }, indent=1)
