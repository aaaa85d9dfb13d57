"""Per-step loop forms of solver paths and recurrences, kept as test references.

These are the loops that the solver's active-step, in-place, chunked, scanned
and blocked forms replaced: the general Levy branch stepping through every
grid step; the same branch stepping through its active steps only, with a new
array per operation and a finiteness check per step (the arithmetic that the
in-place solver keeps, so the two agree bitwise); the Gaussian Euler branch
drawing its noise one step at a time; the exact constant-f Gaussian path
drawing one convolution sample of K modes per step; the step-by-step
trapezoidal convolution of `solver.mode_decomposition_check`; the additive
Levy path's decay fill mode by mode, each e^{-k^2 t} and the settling drift
of each mode run by the e^{-(2k-1) t} recurrence; and the factorization
check's jump weights W_j summed one sub-grid node at a time. The exact
Gaussian path and the convolution are now scans of `solver._atom_states`;
the grid rows come from one row of direct decay powers per run offset
(`solver._decay_fill`); the weights are summed a block of nodes at a time by
`solver._factorization_weights`.

`long_double_fill` is the accuracy reference of the grid fill: the same
decays in numpy's long double.
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
        solver._decay_fill(out, times, np.concatenate(([0], active + 1)))
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
    """out[i, k-1] = states[k-1, last[i]] e^{-k^2 gaps[i]} - d_k (1 - e^{-k^2 t_i}), one mode at a time.

    drift is (d, times) or None.

    Both decays come from the `solver._mode_rows` recurrence, whose rounding
    grows with k (up to 1.1e-13 of max |grid| at K = 64 on criterion-7 paths).
    """
    decays = solver._mode_rows(None, gaps, out.shape[1])
    settles = None if drift is None else solver._mode_rows(None, drift[1], out.shape[1])
    for k, src in enumerate(states):
        row = src[last] * next(decays)
        if drift is not None:
            row -= drift[0][k] * (1.0 - next(settles))
        out[:, k] = row


def long_double_fill(states, t_states, times, shift=None):
    """Grid rows states[:, j] e^{-k^2 (t_i - t_states[j])} - shift_k (1 - e^{-k^2 t_i}) in long double.

    j is the last state at or before t_i (t_states sorted, t_states[0] <= t_0);
    `states` is (K, P). The instants are taken as the doubles given.
    """
    ld = np.longdouble
    k2 = np.arange(1, states.shape[0] + 1, dtype=ld) ** 2
    last = np.searchsorted(t_states, times, side="right") - 1
    gaps = times.astype(ld) - t_states.astype(ld)[last]
    out = states.T.astype(ld)[last] * np.exp(-np.multiply.outer(gaps, k2))
    if shift is not None:
        out += shift.astype(ld) * np.expm1(-np.multiply.outer(times.astype(ld), k2))
    return out


def levy_path_additive(config, real):
    """Grid modes of the constant-f Levy path by the recurrence fill (`decay_fill`)."""
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
