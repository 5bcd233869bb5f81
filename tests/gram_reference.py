"""The Gram matrix of the two-source basis as a dense stack, and the factor
of ``srloc.gram.factor`` as dense matrices: the references the closed-form
Cholesky factor is checked against."""

import numpy as np

from srloc.gram import factor

# Strict lower triangle of a 6x6 Gram matrix, filled from the upper one.
_LOWER = np.tril_indices(6, k=-1)


def build_gram_stack(jet, consts):
    """The Gram matrices of a jet of N points as one (N, 6, 6) stack (a jet
    of scalars is one point), entry by entry from the chain rule (see
    ``srloc.gram``); the lower triangle is filled from conjugates, so
    Hermiticity holds by construction."""
    g, ds, dp, dss, dpp, dsp = np.array(
        [jet.gamma, jet.d_s, jet.d_p, jet.d_ss, jet.d_pp, jet.d_sp], dtype=complex
    ).reshape(6, -1)
    s = np.zeros((len(g), 6, 6), dtype=complex)
    s[:, 0, 0] = s[:, 1, 1] = 1.0
    s[:, 2, 2] = s[:, 4, 4] = consts.dpsi_norm_sq
    s[:, 3, 3] = s[:, 5, 5] = consts.g_variance
    s[:, 0, 1] = g
    s[:, 0, 4] = ds          # <Psi1 | d/dx2 Psi2> = +d_s
    s[:, 0, 5] = dp          # <Psi1 | d/dz2 Psi2> = +d_p
    s[:, 1, 2] = -ds.conj()  # conj of <d/dx1 Psi1 | Psi2> = conj(-d_s)
    s[:, 1, 3] = -dp.conj()
    s[:, 2, 4] = -dss        # <d/dx1 Psi1 | d/dx2 Psi2> = -d_ss
    s[:, 2, 5] = -dsp
    s[:, 3, 4] = -dsp
    s[:, 3, 5] = -dpp
    rows, cols = _LOWER
    s[:, rows, cols] = s[:, cols, rows].conj()
    return s


def factor_stack(jet, consts):
    """``factor`` of a jet of N points as an (N, 6, 6) stack of upper
    triangular matrices, and its five pivots normalized, T_jj^2 / S_jj, as
    a (5, N) array."""
    t, pivots = factor(jet, consts)
    n = np.size(jet.gamma)
    stack = np.zeros((n, 6, 6), dtype=complex)
    for (row, col), entry in t.items():
        stack[:, row, col] = entry
    n_sq, v = consts.dpsi_norm_sq, consts.g_variance
    return stack, np.reshape(pivots, (5, n)) / [[1.0], [n_sq], [v], [n_sq], [v]]
