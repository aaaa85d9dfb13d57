"""Per-amplitude z-quadrature of the jump compensator, kept as a test reference.

This is the direct form that `stats._psi_table` replaced: psi(a) =
int (e^{iaz} - 1 - iaz) Q_eps|_{|z|>eta}(dz) summed over the atoms and over
16 Gauss-Legendre nodes on each geometric panel of each segment, anew at every
amplitude, and Psi = int_0^pi psi(a(x)) dx by 384-node Gauss-Legendre in x.
"""

import math

import numpy as np

from levyheat.quadrature import legendre_nodes


def expm1i(theta):
    """e^{i theta} - 1 - i theta, cancellation-safe for small theta."""
    re = -2.0 * np.sin(0.5 * theta) ** 2
    small = np.abs(theta) < 1e-4
    im = np.where(small, -(theta**3) / 6.0 * (1.0 - theta * theta / 20.0), np.sin(theta) - theta)
    return re + 1j * im


def psi_direct(model, eps, eta, a):
    """psi at each amplitude of the array a, by the z-rule."""
    a = np.asarray(a, dtype=float)
    total = np.zeros(a.shape, dtype=complex)
    atoms, weights = model.base.point_masses(eps)
    mask = np.abs(atoms) > eta
    for z, w in zip(atoms[mask], weights[mask]):
        total += w * expm1i(a * z)
    zg, zw = legendre_nodes(16)
    for seg in model.base.segments(eps, eta):
        n_panels = max(8, int(np.ceil(np.log10(seg.hi / seg.lo) * 8)))
        cuts = np.geomspace(seg.lo, seg.hi, n_panels + 1)
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        half = 0.5 * (cuts[1:] - cuts[:-1])
        zz = (mid[:, None] + half[:, None] * zg[None, :]).ravel()
        wz = (half[:, None] * zw[None, :]).ravel()
        total += expm1i(a[..., None] * (seg.sign * zz)) @ (wz * seg.density(zz))
    return total


def compensator_psi(model, eps, eta, amp_of_x):
    """int_0^pi psi(a(x)) dx with psi evaluated directly at each x-node."""
    xg, xw = legendre_nodes(384)
    x = 0.5 * math.pi * (xg + 1.0)
    wx = 0.5 * math.pi * xw
    return complex(wx @ psi_direct(model, eps, eta, amp_of_x(x)))
