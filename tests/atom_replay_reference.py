"""Per-atom loop forms of the three constant-f replays, kept as test references.

`terminal_samples` and `additive_modes` are the per-atom loops that the atom
kernel (`solver._atom_kernel`, `solver._atom_states`) replaced.
`probe_values` is the step-by-step martingale replay, the oracle of
`stats._probe_values`: it replays every step that holds atoms from its stored
start state, over the whole grid, and assigns atoms to steps with
`solver.atom_steps`, the rule that the solver's general branch uses.

`two_scan_probe_values` is the whole-grid kernel replay as it was before the
additive path kept its atom states: it scans the atoms a second time and
projects the states a block at a time (`projected_states`), takes each
atom's jump back through the atom kernel for the left limits, and
differences a whole-grid cumsum. It takes e^{i theta} from `stats._phasor`,
as `stats._probe_values` does, which integrates only the probe window and
decays the kept states to the left limits: the two give the same F_s bits,
and M_t - M_s agrees to rounding.
"""

import numpy as np

from levyheat import noise, solver, stats
from levyheat.streams import stream


def terminal_drift(coeffs, T, collocation):
    """<D_T, c> per unit rate: sum_k c_k <1, phi_k>_M (1 - e^{-k^2 T}) / k^2, the drift of the solver's grid."""
    K = len(coeffs)
    k = np.arange(1, K + 1, dtype=float)
    flat = solver.flat_projection(K, collocation)
    return float(np.sum(coeffs * flat * (1.0 - np.exp(-k * k * T)) / (k * k)))


def terminal_kernel_weights(coeffs, T, t, x):
    """w(t_j, x_j) = sum_k c_k e^{-k^2 (T - t_j)} phi_k(x_j), sparse over modes."""
    nz = np.nonzero(coeffs)[0]
    out = np.zeros_like(t)
    for k_idx in nz:
        k = k_idx + 1
        out += coeffs[k_idx] * np.exp(-(k * k) * (T - t)) * np.sqrt(2.0 / np.pi) * np.sin(k * x)
    return out


def terminal_samples(config, functionals, n_paths, base_seed, purpose="atoms"):
    """<u_T, phi> per path, one weight evaluation per path and functional."""
    spec = config.noise
    K, T = config.modes, config.T
    cval = config.f.constant_value
    eta = spec.resolve_eta(T)
    coeff_rows = [np.asarray(f.coefficients, dtype=float) for f in functionals]
    drifts = [cval * terminal_drift(c, T, config.collocation) for c in coeff_rows]
    init_terms = [0.0] * len(coeff_rows)
    if config.initial is not None:
        k = np.arange(1, K + 1, dtype=float)
        decayed = np.asarray(config.initial) * np.exp(-k * k * T)
        init_terms = [float(decayed @ c) for c in coeff_rows]
    out = {f.name: np.empty(n_paths) for f in functionals}
    for i in range(n_paths):
        real = noise.simulate_levy_noise(spec.model, spec.eps, eta, T, stream(base_seed, i, purpose),
                                         rho_budget=spec.rho_budget, atom_cap=spec.atom_cap)
        sigma_used = real.jump_scale(spec.normalization)
        rate = real.m_restricted / sigma_used
        for f, c, dr, it in zip(functionals, coeff_rows, drifts, init_terms):
            w = terminal_kernel_weights(c, T, real.t, real.x)
            out[f.name][i] = it + cval * float(w @ real.z) / sigma_used - rate * dr
    return out


def additive_modes(config, real):
    """Grid modes of the constant-f path, replaying the atoms one at a time."""
    sigma_used = real.jump_scale(config.noise.normalization)
    K = config.modes
    kvec = np.arange(1, K + 1, dtype=float)
    k2 = kvec ** 2
    times = config.times()
    cval = config.f.constant_value
    tj, xj, zj = real.t, real.x, real.z
    states = np.empty((len(tj) + 1, K))
    states[0] = solver._initial_state(config)
    ev_times = np.concatenate(([0.0], tj))
    for j in range(len(tj)):
        gap = ev_times[j + 1] - ev_times[j]
        phik = np.sqrt(2.0 / np.pi) * np.sin(kvec * xj[j])
        states[j + 1] = states[j] * np.exp(-k2 * gap) + cval * (zj[j] / sigma_used) * phik
    last = np.searchsorted(tj, times, side="right")
    gaps = times - ev_times[last]
    out = states[last] * np.exp(-np.outer(gaps, k2))
    if real.m_restricted != 0.0:
        rate = real.m_restricted / sigma_used
        flat = solver.flat_projection(K, config.collocation)
        out = out - rate * cval * flat[None, :] * (1.0 - np.exp(-np.outer(times, k2))) / k2[None, :]
    return out


def probe_values(path, probe, psi, coeffs, coeffs_dd):
    """(M_t - M_s, <u_s, phi>) with every step that holds atoms replayed from its stored start state."""
    real, sigma_used = solver.jump_log(path, "martingale_residual")
    cfg = path.config
    times = path.times
    dt = times[1] - times[0]
    kvec = np.arange(1, path.n_modes + 1, dtype=float)
    k2 = kvec ** 2
    F = path.modes @ coeffs
    D = path.modes @ coeffs_dd
    fvals = path.f_at_atoms
    drift_rate = real.m_restricted / sigma_used
    drift_vec = None
    if drift_rate != 0.0 and cfg.f.is_constant:
        drift_vec = (drift_rate * cfg.f.constant_value
                     * solver.flat_projection(path.n_modes, cfg.collocation)
                     * (1.0 - np.exp(-k2 * dt)) / k2)
    xi = probe.xi
    vals = np.exp(1j * xi * F) * (1j * xi * D + psi)
    piece = 0.5 * dt * (vals[:-1] + vals[1:])
    if len(real.t):
        steps = solver.atom_steps(times, real.t)
        for n in np.unique(steps):
            sel = np.nonzero(steps == n)[0]
            m = path.modes[n].copy()
            t_cur = times[n]
            acc = 0.0 + 0.0j
            v_cur = vals[n]
            for j in sel:
                ta = real.t[j]
                if ta > t_cur:
                    m = m * np.exp(-k2 * (ta - t_cur))
                    v_new = np.exp(1j * xi * (m @ coeffs)) * (1j * xi * (m @ coeffs_dd) + psi)
                    acc += 0.5 * (ta - t_cur) * (v_cur + v_new)
                    t_cur, v_cur = ta, v_new
                m = m + fvals[j] * (real.z[j] / sigma_used) * np.sqrt(2.0 / np.pi) * np.sin(kvec * real.x[j])
                v_cur = np.exp(1j * xi * (m @ coeffs)) * (1j * xi * (m @ coeffs_dd) + psi)
            t1 = times[n + 1]
            if t1 > t_cur:
                m = m * np.exp(-k2 * (t1 - t_cur))
            if drift_vec is not None:
                m = m - drift_vec
            v_new = np.exp(1j * xi * (m @ coeffs)) * (1j * xi * (m @ coeffs_dd) + psi)
            acc += 0.5 * (t1 - t_cur) * (v_cur + v_new)
            piece[n] = acc
    cum = np.concatenate(([0.0 + 0.0j], np.cumsum(piece)))
    i_s = solver.grid_index(path, probe.s, "martingale_residual")
    i_t = solver.grid_index(path, probe.t, "martingale_residual")
    M_s = np.exp(1j * xi * F[i_s]) - cum[i_s]
    M_t = np.exp(1j * xi * F[i_t]) - cum[i_t]
    return M_t - M_s, F[i_s]


def projected_states(t, x, a, m0, proj):
    """proj.T @ solver._atom_states(t, x, a, m0), with the projection taken a scan block at a time."""
    m = np.asarray(m0, dtype=float)
    K = len(m)
    k2 = np.arange(1, K + 1, dtype=float) ** 2
    J = len(t)
    out = np.empty((proj.shape[1], J + 1))
    out[:, 0] = m @ proj
    t_prev = 0.0
    span = solver._SCAN_GROWTH / (K * K)
    for lo in range(0, J, solver._ATOM_BLOCK):
        part = slice(lo, lo + solver._ATOM_BLOCK)
        tb = t[part]
        starts = [0]
        while (nxt := int(np.searchsorted(tb, tb[starts[-1]] + span, side="right"))) < len(tb):
            starts.append(nxt)
        ends = starts[1:] + [len(tb)]
        since = tb - np.repeat(tb[starts], np.subtract(ends, starts))
        acc = np.empty((K, len(tb)))
        amp = np.sqrt(2.0 / np.pi) * a[part]
        for row, grow in zip(acc, solver._mode_rows(x[part], -since, K)):
            np.multiply(grow, amp, out=row)
        for c0, c1 in zip(starts, ends):
            chunk = acc[:, c0:c1]
            np.cumsum(chunk, axis=1, out=chunk)
            m = m * np.exp(-k2 * (tb[c0] - t_prev))
            chunk += m[:, None]
            m, t_prev = chunk[:, -1] * np.exp(-k2 * since[c1 - 1]), tb[c1 - 1]
        for row, decay in zip(acc, solver._mode_rows(None, since, K)):
            row *= decay
        out[:, lo + 1:lo + 1 + len(tb)] = proj.T @ acc
    return out


def two_scan_probe_values(path, probes, psis, coeffs, coeffs_dd):
    """`stats._probe_values` with its right limits from a second, projected scan of the atom log."""
    real, sigma_used = solver.jump_log(path, "martingale_residual")
    cfg = path.config
    times = path.times
    dt = times[1] - times[0]
    proj = np.column_stack([v for c, cd in zip(coeffs, coeffs_dd) for v in (c, cd)])
    grid = proj.T @ path.modes.T
    t = real.t
    if len(t):
        a = path.f_at_atoms * (real.z / sigma_used)
        steps = solver.atom_steps(times, t)
        right = projected_states(t, real.x, a, path.modes[0], proj)[:, 1:]
        drift_rate = real.m_restricted / sigma_used
        if drift_rate != 0.0:
            r = solver._drift_modes(drift_rate * cfg.f.constant_value, path.n_modes, cfg.collocation)
            decays = solver._atom_kernel(proj.T * r, None, np.concatenate((t - times[steps], t)))
            right -= decays[:, :len(t)] - decays[:, len(t):]
        left = right - solver._atom_kernel(proj.T, real.x, None) * a
        first = np.concatenate(([True], steps[1:] != steps[:-1]))
        last = np.concatenate((steps[1:] != steps[:-1], [True]))
        t_from = np.where(first, times[steps], np.concatenate(([0.0], t[:-1])))
        n_last = steps[last]
        span_in = 0.5 * (t - t_from)
        span_out = 0.5 * (times[n_last + 1] - t[last])
    out = []
    for p, (probe, psi) in enumerate(zip(probes, psis)):
        xi = probe.xi

        def v(values):
            return stats._phasor(xi * values[2 * p]) * (1j * xi * values[2 * p + 1] + psi)

        vals = v(grid)
        piece = 0.5 * dt * (vals[:-1] + vals[1:])
        if len(t):
            v_right = v(right)
            v_from = np.where(first, vals[steps], np.concatenate(([0.0], v_right[:-1])))
            seg = span_in * (v_from + v(left))
            piece[n_last] = (np.add.reduceat(seg, np.flatnonzero(first))
                             + span_out * (v_right[last] + vals[n_last + 1]))
        cum = np.concatenate(([0.0 + 0.0j], np.cumsum(piece)))
        F = grid[2 * p]
        i_s = solver.grid_index(path, probe.s, "martingale_residual")
        i_t = solver.grid_index(path, probe.t, "martingale_residual")
        M_s = np.exp(1j * xi * F[i_s]) - cum[i_s]
        M_t = np.exp(1j * xi * F[i_t]) - cum[i_t]
        out.append((M_t - M_s, F[i_s]))
    return out
