"""The 50-digit mpmath oracle for H and Gamma, shared by the test modules.

It evaluates the general closed forms on the analytic overlap jet of the
Gaussian beam in 50-digit arithmetic, independently of every double
precision route in ``srloc``.  It keeps the uncentered overlap, with its
phase exp(-i k p), and the generator's mean, in physical units, so it checks
the centering and the scaling of the routes instead of sharing them; the
cancellation between the two costs about 21 of the 50 digits at k = z_R = 1e5.
"""

import mpmath
import numpy as np


def oracle(psf, s, p):
    """H and Gamma at 50 digits: the general forms on the analytic jet of
    gamma = (2i z_R / d) exp(-i k p - i k s^2 / (2 d)), d = p + 2i z_R."""
    with mpmath.workdps(50):
        k, zr, s, p = (mpmath.mpf(v) for v in (psf.k, psf.z_r, s, p))
        d = p + 2j * zr
        g = (2j * zr / d) * mpmath.exp(-1j * k * p - 1j * k * s * s / (2 * d))
        ls = -1j * k * s / d                                   # d log(gamma) / ds
        lp = -1 / d - 1j * k + 1j * k * s * s / (2 * d * d)    # d log(gamma) / dp
        ag = abs(g)
        om = 1 - ag * ag
        dsa, dpa, dsph, dpph = ag * ls.real, ag * lp.real, ls.imag, lp.imag
        n, mg, var = k / (2 * zr), k - 1 / (2 * zr), 1 / (4 * zr * zr)
        mg2 = var + mg * mg
        h = [[0] * 4 for _ in range(4)]
        gm = [[0] * 4 for _ in range(4)]
        h[0][0], h[2][2] = n, var
        h[1][1] = 4 * n - 4 * dsa ** 2 - 4 * ag ** 2 * dsph ** 2 / om
        h[3][3] = (4 / om) * (var - dpa ** 2 - ag ** 2 * (mg2 - dpa ** 2 + 2 * mg * dpph + dpph ** 2))
        h[1][3] = h[3][1] = -4 * ag ** 2 * dsph * (mg + dpph) / om - 4 * dsa * dpa
        gm[0][1] = -2 * ag ** 3 * dsa * dsph / om
        gm[2][3] = -2 * ag ** 3 * dpa * (mg + dpph) / om
        gm[0][3] = 2 * ag * (dpa * dsph - dsa * (dpph + mg) / om)
        gm[1][2] = 2 * ag * (-dsa * (mg + dpph) + dpa * dsph / om)
        for i, j in ((0, 1), (2, 3), (0, 3), (1, 2)):
            gm[j][i] = -gm[i][j]
        return np.array(h, dtype=float), np.array(gm, dtype=float)


def row_scaled_error(h, g, h_ref, g_ref):
    """Largest |error| of H and Gamma entries over the largest |H| of their row."""
    scale = np.abs(h_ref).max(axis=-1, keepdims=True)
    return max(float(np.max(np.abs(h - h_ref) / scale)), float(np.max(np.abs(g - g_ref) / scale)))
