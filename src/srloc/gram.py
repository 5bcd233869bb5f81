"""Gram matrices of the two-source basis.

The one-photon state of two incoherent sources and all its coordinate
derivatives live in the span of six vectors: the two source images and
the four coordinate derivatives of those images,

    (Psi1, Psi2, d/dx1 Psi1, d/dz1 Psi1, d/dx2 Psi2, d/dz2 Psi2).

Their Gram matrix S holds everything the pipeline needs about the basis.
Every Gram entry depends on the source coordinates only through the
separations (s, p); centroid coordinates never enter.
"""

from __future__ import annotations

import numpy as np

from .psf import OverlapJet, PsfConstants

__all__ = ["COORDINATES", "build_gram_stack"]

# Coordinate labels for the derivative operators, in basis-row order.
COORDINATES = ("x1", "z1", "x2", "z2")

# A basis whose smallest Gram eigenvalue falls below this times the largest
# counts as numerically degenerate.
DEGENERACY_THRESHOLD = 1e-12

# (state row, derivative-vector row) populated by each coordinate derivative.
_DRHO_ROWS = {"x1": (0, 2), "z1": (0, 3), "x2": (1, 4), "z2": (1, 5)}


def build_gram_stack(jet: OverlapJet, consts: PsfConstants) -> tuple[np.ndarray, dict[int, str]]:
    """Assemble the Gram matrices of a jet of N points as one (N, 6, 6) stack
    (a jet of scalars is one point).

    Derivatives with respect to absolute coordinates reduce to separation
    derivatives by the chain rule (s = x2 - x1, p = z2 - z1):
    d/dx1 -> -d/ds, d/dx2 -> +d/ds, d/dz1 -> -d/dp, d/dz2 -> +d/dp, and the
    mixed source-1/source-2 second derivatives pick up one sign flip each.
    The lower triangle is filled from conjugates, so Hermiticity holds by
    construction.

    Returns the stack and, for each point whose basis is numerically
    degenerate, the reason keyed by its index: its jet or Gram matrix is not
    finite (the jet overflows at far separations), or the smallest eigenvalue
    of its Gram matrix falls below ``DEGENERACY_THRESHOLD`` times the largest
    (happens as (s, p) -> (0, 0)).  One ``eigvalsh`` covers the stack, with
    the identity in place of each matrix that is not finite.
    """
    g, ds, dp, dss, dpp, dsp = np.array(
        [jet.gamma, jet.d_s, jet.d_p, jet.d_ss, jet.d_pp, jet.d_sp], dtype=complex
    ).reshape(6, -1)
    n = consts.dpsi_norm_sq
    mg = consts.mean_g
    mg2 = consts.mean_g2

    s = np.zeros((len(g), 6, 6), dtype=complex)
    s[:, 0, 0] = 1.0
    s[:, 1, 1] = 1.0
    s[:, 2, 2] = n
    s[:, 3, 3] = mg2
    s[:, 4, 4] = n
    s[:, 5, 5] = mg2
    s[:, 0, 1] = g
    s[:, 0, 3] = -1j * mg
    s[:, 0, 4] = ds          # <Psi1 | d/dx2 Psi2> = +d_s
    s[:, 0, 5] = dp          # <Psi1 | d/dz2 Psi2> = +d_p
    s[:, 1, 2] = -ds.conj()  # conj of <d/dx1 Psi1 | Psi2> = conj(-d_s)
    s[:, 1, 3] = -dp.conj()
    s[:, 1, 5] = -1j * mg
    s[:, 2, 4] = -dss        # <d/dx1 Psi1 | d/dx2 Psi2> = -d_ss
    s[:, 2, 5] = -dsp
    s[:, 3, 4] = -dsp
    s[:, 3, 5] = -dpp
    rows, cols = np.tril_indices(6, k=-1)
    s[:, rows, cols] = s[:, cols, rows].conj()

    finite = np.isfinite(s.view(float)).all(axis=(1, 2))
    # eigvalsh fails on a whole stack that holds one non-finite matrix: test the identity there
    eigs = np.linalg.eigvalsh(np.where(finite[:, None, None], s, np.eye(6)))
    degenerate = {
        int(i): "overlap jet is not finite (it overflows at this separation)"
        for i in np.flatnonzero(~finite)
    }
    degenerate.update({
        int(i): "basis is numerically degenerate "
        f"(eigenvalue ratio {eigs[i, 0]:.3e} / {eigs[i, -1]:.3e} below "
        f"threshold {DEGENERACY_THRESHOLD:.1e}); the sources are too close "
        "for the numerical route -- use the coincident-source limit"
        for i in np.flatnonzero(eigs[:, 0] < DEGENERACY_THRESHOLD * eigs[:, -1])
    })
    return s, degenerate
