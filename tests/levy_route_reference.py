"""Earlier forms of the terminal-sample route of a Levy cell, kept as test references.

These are the draws and kernels that the whole-array forms replaced: times
and positions scaled into new arrays, the segment pick counted into
native-int indices with the marks negated under a mask, and the atom kernel
run for every coefficient set, kmax = 1 included, as a zero-filled
accumulator in blocks of `solver._ATOM_BLOCK` atoms that adds every row at
every mode, and the terminal samples finished path by path. The new route
must give the same bits from the same streams. sin x and 2 cos x come from
the solver's own half-angle forms (`solver._half_angle`), so the block, cut
and row-pick structure is pinned bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np

from levyheat import noise, solver
from levyheat.streams import stream


def realization_arrays(model, eps, eta, T, rng):
    """(t, x, z) of `noise.simulate_levy_noise(model, eps, eta, T, rng)`, drawn by the earlier code."""
    _, lam, _, _ = noise._cell(model, eps, eta)
    n = int(rng.poisson(lam * T * math.pi))
    t = T * rng.random(n)
    x = math.pi * rng.random(n)
    z = sample_marks(model.sampler(eps, eta), n, rng) if n else np.empty(0)
    return t, x, z


def pick(sampler, count, rng):
    u = rng.random(count)
    if len(sampler.cdf) > 32:
        return sampler.cdf.searchsorted(u, side="right")
    idx = np.zeros(count, dtype=np.intp)
    for c in sampler.cdf[:-1]:
        idx += u >= c
    return idx


def sample_marks(sampler, count, rng):
    """`count` marks of a `measures._MarkSampler`, as its earlier `sample` drew them."""
    if sampler.discrete:
        return sampler.values[pick(sampler, count, rng)]
    which = pick(sampler, count, rng)
    if len(sampler.maps) == 1:
        mark = sampler.maps[0]
        flip = (sampler.signs < 0)[which]
        del which
        r = mark(count, rng) if sampler.rejects[0] else mark(rng.random(count))
        np.negative(r, out=r, where=flip)
        return r
    groups = sampler.group[which]
    from_uniform = ~sampler.rejects[groups]
    u = np.empty(count)
    u[from_uniform] = rng.random(np.count_nonzero(from_uniform))
    out = np.empty(count)
    for g, mark in enumerate(sampler.maps):
        m = groups == g
        if np.any(m):
            r = mark(np.count_nonzero(m), rng) if sampler.rejects[g] else mark(u[m])
            out[m] = sampler.signs[which[m]] * r
    return out


def _mode_rows(x, tau, kmax, sizes=None):
    if x is not None:
        s_prev = np.zeros_like(x) if kmax > 1 else None
        s_cur, two_cos = solver._half_angle(x, two_cos=kmax > 1)
    if tau is not None:
        odd = np.negative(tau)
        np.exp(odd, out=odd)
        decay = odd.copy() if kmax > 1 else odd
        step = odd * odd if kmax > 1 else None
    n = len(x if tau is None else tau)
    for k in range(1, kmax + 1):
        if k > 1:
            if sizes is not None and sizes[k - 1] < n:
                n = sizes[k - 1]
                if x is not None:
                    s_prev, s_cur, two_cos = s_prev[:n], s_cur[:n], two_cos[:n]
                if tau is not None:
                    odd, decay, step = odd[:n], decay[:n], step[:n]
            if x is not None:
                s_prev, s_cur = s_cur, two_cos * s_cur - s_prev
            if tau is not None:
                odd *= step
                decay *= odd
        if tau is None:
            yield s_cur
        elif x is None:
            yield decay
        else:
            yield s_cur * decay if k < kmax else np.multiply(s_cur, decay, out=s_cur)


def _mode_counts(tau, kmax):
    with np.errstate(all="ignore"):
        counts = np.fmin(np.ceil(np.sqrt(53.0 * math.log(2.0) / tau)), kmax)
    counts[~(counts > 0)] = kmax
    return counts.astype(np.int16 if kmax < 2**15 else np.intp)


def atom_kernel(coeffs, x, tau):
    """`solver._atom_kernel` in its blocked form for every kmax."""
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    n = len(x if tau is None else tau)
    out = np.zeros((len(coeffs), n))
    nonzero = coeffs.any(axis=0)
    if not nonzero.any():
        return out
    kmax = np.flatnonzero(nonzero)[-1] + 1
    for lo in range(0, n, solver._ATOM_BLOCK):
        part = slice(lo, lo + solver._ATOM_BLOCK)
        block = out[:, part]
        xb = None if x is None else x[part]
        tb = None if tau is None else tau[part]
        kb, sizes = kmax, None
        if tb is not None and kmax * len(tb) >= 2**16:
            counts = _mode_counts(tb, kmax)
            kb = int(counts.max())
            if 2 * int(counts.sum()) <= kb * len(tb):
                order = np.argsort(-counts, kind="stable")
                sizes = (len(tb) - np.cumsum(np.bincount(counts, minlength=kb + 1))[:kb]).tolist()
                xb = None if xb is None else xb[order]
                tb = tb[order]
                acc = np.zeros_like(block)
        for k, row in enumerate(_mode_rows(xb, tb, kb, sizes)):
            if not nonzero[k]:
                continue
            if sizes is None:
                block += coeffs[:, k, None] * row
            else:
                acc[:, :len(row)] += coeffs[:, k, None] * row
        if sizes is not None:
            block[:, order] = acc
    if x is not None:
        out *= np.sqrt(2.0 / np.pi)
    return out


def terminal_sums(reals, coeffs, T):
    """`stats._terminal_sums` over the blocked kernel."""
    counts = np.array([len(r) for r in reals])
    sums = np.zeros((len(coeffs), len(reals)))
    if not counts.any():
        return sums
    w = atom_kernel(coeffs, np.concatenate([r.x for r in reals]), T - np.concatenate([r.t for r in reals]))
    w *= np.concatenate([r.z for r in reals])
    filled = counts > 0
    sums[:, filled] = np.add.reduceat(w, (np.cumsum(counts) - counts)[filled], axis=1)
    return sums


class _Atoms(SimpleNamespace):
    def __len__(self):
        return len(self.t)


def terminal_samples(config, functionals, n_paths, base_seed, purpose="atoms"):
    """`stats.collect_terminal_samples` of a constant-f cell on one thread, with the
    earlier draws and kernel, each path's values finished one by one."""
    cval = config.f.constant_value
    K, T = config.modes, config.T
    coeff_rows = [np.asarray(f.coefficients, dtype=float) for f in functionals]
    out = {f.name: np.empty(n_paths) for f in functionals}
    k2 = np.arange(1, K + 1, dtype=float) ** 2
    if config.noise.kind == "gaussian":
        sd = solver._gaussian_sd(cval, K, T)
        mean_modes = np.zeros(K)
        if config.initial is not None:
            mean_modes = np.asarray(config.initial) * np.exp(-k2 * T)
        for i in range(n_paths):
            rng = stream(base_seed, i, purpose)
            modes_T = mean_modes + sd * rng.standard_normal(K)
            for f, c in zip(functionals, coeff_rows):
                out[f.name][i] = float(modes_T @ c)
        return out
    spec = config.noise
    eta = spec.resolve_eta(T)
    var, _, retained2, m_restricted = noise._cell(spec.model, spec.eps, eta)
    init_terms = [0.0] * len(coeff_rows)
    if config.initial is not None:
        decayed = np.asarray(config.initial) * np.exp(-k2 * T)
        init_terms = [float(decayed @ c) for c in coeff_rows]
    coeffs = np.array([solver.fit_coefficients(c, max(map(len, coeff_rows))) for c in coeff_rows])
    width = coeffs.shape[-1]
    decay_T = np.exp(-np.arange(1, width + 1, dtype=float) ** 2 * T)
    drifts = coeffs @ (solver._drift_modes(cval, width, config.collocation) * (1.0 - decay_T))

    def flush(batch):
        sums = terminal_sums([real for _, real in batch], coeffs, T)
        for (i, real), path_sums in zip(batch, sums.T):
            sigma_used = math.sqrt(var if spec.normalization == "model" else retained2)
            rate = m_restricted / sigma_used
            for f, s, dr, it in zip(functionals, path_sums, drifts, init_terms):
                out[f.name][i] = it + cval * float(s) / sigma_used - rate * dr
        batch.clear()

    batch, n_atoms = [], 0
    for i in range(n_paths):
        t, x, z = realization_arrays(spec.model, spec.eps, eta, T, stream(base_seed, i, purpose))
        real = _Atoms(t=t, x=x, z=z)
        if batch and n_atoms + len(t) > solver._ATOM_BLOCK:
            flush(batch)
            n_atoms = 0
        batch.append((i, real))
        n_atoms += len(t)
        if n_atoms >= solver._ATOM_BLOCK:
            flush(batch)
            n_atoms = 0
    flush(batch)
    return out
