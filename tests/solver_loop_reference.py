"""Per-step loop forms of solver paths and recurrences, kept as test references.

These are the loops that the solver's active-step, in-place, chunked, scanned
and blocked forms replaced: the general Levy branch stepping through every
grid step; the same branch stepping through its active steps only, with a new
array per operation and a finiteness check per step (the arithmetic that the
in-place solver keeps, so the two agree bitwise); the Gaussian Euler branch
drawing its noise one step at a time; the exact constant-f Gaussian path
drawing one convolution sample of K modes per step; the step-by-step
trapezoidal convolution of `solver.mode_decomposition_check`; the additive
Levy path's decay fill with the settling drift of each mode run by its own
recurrence in the same pass; and the factorization check's jump weights W_j
summed one sub-grid node at a time. The exact Gaussian path and the
convolution are now scans of `solver._atom_states`; the drift rows come once
per grid from `solver._settle_rows`; the weights are summed a block of nodes
at a time by `solver._factorization_weights`.
"""

import math

import numpy as np

from levyheat import solver
from levyheat.errors import NonFiniteStateError


def levy_path_general(config, real):
    """(grid modes, f(u(t_j-, x_j)) per atom) of the general branch, every grid step in turn."""
    sigma_used = real.jump_scale(config.noise.normalization)
    K, M, N = config.modes, config.collocation, config.steps
    kvec = np.arange(1, K + 1, dtype=float)
    k2 = kvec ** 2
    decay = np.exp(-k2 * config.dt)
    _, S = solver._collocation(K, M)
    dx = np.pi / M
    drift_rate = real.m_restricted / sigma_used
    conv = (1.0 - decay) / k2
    m = solver._initial_state(config)
    out = np.empty((N + 1, K))
    out[0] = m
    f_at = np.empty(len(real.t))
    j = 0
    times = config.times()
    step_end = np.searchsorted(solver.atom_steps(times, real.t), np.arange(N), side="right")
    for n in range(N):
        t0, t1 = times[n], times[n + 1]
        if drift_rate != 0.0:
            D = S @ (config.f(m @ S) * dx)
        t_cur = t0
        while j < step_end[n]:
            ta = real.t[j]
            if ta > t_cur:
                m = m * np.exp(-k2 * (ta - t_cur))
                t_cur = ta
            phik = np.sqrt(2.0 / np.pi) * np.sin(kvec * real.x[j])
            fval = float(config.f(float(m @ phik)))
            f_at[j] = fval
            m = m + fval * (real.z[j] / sigma_used) * phik
            j += 1
        if t1 > t_cur:
            m = m * np.exp(-k2 * (t1 - t_cur))
        if drift_rate != 0.0:
            m = m - drift_rate * D * conv
        if not np.all(np.isfinite(m)):
            raise NonFiniteStateError(f"non-finite mode at step {n + 1}", operation="simulate_path")
        out[n + 1] = m
    return out, f_at


def levy_path_general_active(config, real):
    """(grid modes, f(u(t_j-, x_j)) per atom) of the general branch, active steps only, allocating per step."""
    sigma_used = real.jump_scale(config.noise.normalization)
    K, M, N = config.modes, config.collocation, config.steps
    kvec = np.arange(1, K + 1, dtype=float)
    k2 = kvec**2
    _, S = solver._collocation(K, M)
    dx = np.pi / M
    drift_rate = real.m_restricted / sigma_used
    times = config.times()
    if drift_rate != 0.0:
        conv = (1.0 - np.exp(-k2 * config.dt)) / k2
    t_atoms, x_atoms = real.t, real.x
    amp = real.z / sigma_used
    f_at = np.empty(len(t_atoms))
    steps = solver.atom_steps(times, t_atoms)
    active = np.arange(N) if drift_rate != 0.0 else np.unique(steps)
    bounds = np.searchsorted(steps, active, side="left"), np.searchsorted(steps, active, side="right")
    out = np.empty((N + 1, K))
    m = out[0] = solver._initial_state(config)
    t_cur = times[0]
    for n, j0, j1 in zip(active.tolist(), *bounds):
        if drift_rate != 0.0:
            D = S @ (config.f(m @ S) * dx)
        for j in range(j0, j1):
            ta = t_atoms[j]
            m = m * np.exp(-k2 * (ta - t_cur))
            t_cur = ta
            phik = np.sqrt(2.0 / np.pi) * np.sin(kvec * x_atoms[j])
            fval = float(config.f(float(m @ phik)))
            f_at[j] = fval
            m = m + fval * amp[j] * phik
        m = m * np.exp(-k2 * (times[n + 1] - t_cur))
        t_cur = times[n + 1]
        if drift_rate != 0.0:
            m = m - drift_rate * D * conv
        if not np.all(np.isfinite(m)):
            raise NonFiniteStateError(f"non-finite mode at step {n + 1}", operation="simulate_path")
        out[n + 1] = m
    if len(active) < N:
        rows = np.concatenate(([0], active + 1))
        last = rows[np.searchsorted(rows, np.arange(N + 1), side="right") - 1]
        solver._decay_fill(out, out.T, last, times - times[last])
    return out, f_at


def gaussian_path(config, rng):
    """Grid modes of the non-constant-f Gaussian Euler branch, one noise draw per step."""
    K, M, N = config.modes, config.collocation, config.steps
    dt = config.dt
    k2 = np.arange(1, K + 1, dtype=float) ** 2
    decay = np.exp(-k2 * dt)
    _, S = solver._collocation(K, M)
    w_sd = math.sqrt(dt * np.pi / M)
    m = solver._initial_state(config)
    out = np.empty((N + 1, K))
    out[0] = m
    for n in range(N):
        u = m @ S
        g = config.f(u) * rng.normal(0.0, w_sd, size=M)
        m = decay * m + S @ g
        if not np.all(np.isfinite(m)):
            raise NonFiniteStateError(f"non-finite mode at step {n + 1}", operation="simulate_path")
        out[n + 1] = m
    return out


def exact_gaussian_path(config, rng):
    """Grid modes of the constant-f Gaussian path, y <- e^{-k^2 dt} y + sd xi one step at a time."""
    K, N = config.modes, config.steps
    k2 = np.arange(1, K + 1, dtype=float) ** 2
    decay = np.exp(-k2 * config.dt)
    conv_sd = abs(config.f.constant_value) * np.sqrt((1.0 - decay**2) / (2.0 * k2))
    m = solver._initial_state(config)
    out = np.empty((N + 1, K))
    out[0] = m
    for n in range(N):
        m = decay * m + conv_sd * rng.standard_normal(K)
        out[n + 1] = m
    return out


def trapezoid_convolution(X, k2, dt):
    """conv_n = int_0^{t_n} X_s e^{-k^2 (t_n - s)} ds by the trapezoidal rule, one step at a time."""
    e = math.exp(-k2 * dt)
    conv = np.empty_like(X)
    conv[0] = 0.0
    for n in range(1, len(X)):
        conv[n] = e * conv[n - 1] + 0.5 * dt * (X[n - 1] * e + X[n])
    return conv


def decay_fill(out, states, last, gaps, drift=None):
    """`solver._decay_fill` with drift = (d, times): each mode's 1 - e^{-k^2 times[i]} by its own recurrence."""
    K = out.shape[1]
    buf = np.empty((min(solver._FILL_MODES, K), len(out)))
    decays = solver._mode_rows(None, gaps, K)
    if drift is not None:
        d, times = drift
        settles = solver._mode_rows(None, times, K)
        tmp = np.empty(len(out))
    for k0 in range(0, K, solver._FILL_MODES):
        part = buf[:K - k0]
        for k, (row, src) in enumerate(zip(part, states[k0:]), start=k0):
            np.multiply(src[last], next(decays), out=row)
            if drift is not None:
                np.subtract(1.0, next(settles), out=tmp)
                tmp *= d[k]
                row -= tmp
        out[:, k0:k0 + len(part)] = part.T


def levy_path_additive(config, real):
    """Grid modes of the constant-f Levy path, its drift rows recomputed per path in the fill."""
    sigma_used = real.jump_scale(config.noise.normalization)
    K = config.modes
    times = config.times()
    cval = config.f.constant_value
    states = solver._atom_states(real.t, real.x, cval * (real.z / sigma_used), solver._initial_state(config))
    last = np.searchsorted(real.t, times, side="right")
    out = np.empty((len(times), K))
    drift = None
    if real.m_restricted != 0.0:
        drift = solver._drift_modes(real.m_restricted / sigma_used * cval, K, config.collocation), times
    decay_fill(out, states, last, times - np.concatenate(([0.0], real.t))[last], drift)
    return out


def factorization_weights(t_atoms, s, w, delta):
    """W_j = sum_{s_i > t_j} w_i (s_i - t_j)^{-delta}, one sub-grid node at a time."""
    before = np.searchsorted(t_atoms, s, side="left")
    W = np.zeros(before[-1])
    for si, wi, n in zip(s, w, before):
        W[:n] += wi * (si - t_atoms[:n]) ** -delta
    return W
