"""Gram matrix and operator action matrices in the two-source basis.

The one-photon state of two incoherent sources and all its coordinate
derivatives live in the span of six vectors: the two source images and
the four coordinate derivatives of those images,

    (Psi1, Psi2, d/dx1 Psi1, d/dz1 Psi1, d/dx2 Psi2, d/dz2 Psi2).

That basis is not orthogonal, so operators are represented here by their
*action*: O maps the j-th basis vector to sum_i M[i, j] * (i-th basis
vector).  Two consequences worth keeping in mind:

* Hermiticity of the represented operator reads S M = M^H S (with S the
  Gram matrix), *not* M = M^H.
* The trace of an action matrix equals the operator trace restricted to
  the span, and action matrices multiply like the operators they
  represent, so traces of products can be taken directly.

Every Gram entry depends on the source coordinates only through the
separations (s, p); centroid coordinates never enter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, InvalidParameterError
from .psf import OverlapJet, PsfConstants

__all__ = [
    "COORDINATES",
    "GramMatrix",
    "ActionMatrix",
    "build_gram",
    "build_gram_stack",
    "build_rho_action",
    "build_drho_action",
    "hermiticity_residual",
]

# Coordinate labels for the derivative operators, in basis-row order.
COORDINATES = ("x1", "z1", "x2", "z2")

# A basis whose smallest Gram eigenvalue falls below this times the largest
# counts as numerically degenerate.
DEGENERACY_THRESHOLD = 1e-12

# (state row, derivative-vector row) populated by each coordinate derivative.
_DRHO_ROWS = {"x1": (0, 2), "z1": (0, 3), "x2": (1, 4), "z2": (1, 5)}


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian positive-definite matrix of basis inner products.

    ``s_mat[i, j]`` is the inner product of basis vectors i and j in the
    six-vector order documented in the module docstring.  Construction via
    :func:`build_gram` guarantees exact Hermitian symmetry.
    """

    s_mat: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.s_mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidParameterError(f"Gram matrix must be square, got shape {arr.shape}")
        scale = float(np.max(np.abs(arr))) or 1.0
        if np.max(np.abs(arr - arr.conj().T)) > 1e-12 * scale:
            raise InvalidParameterError("Gram matrix must be Hermitian")
        arr.setflags(write=False)
        object.__setattr__(self, "s_mat", arr)


@dataclass(frozen=True)
class ActionMatrix:
    """Action representation of an operator on the shared basis."""

    m: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.m, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidParameterError(f"action matrix must be square, got shape {arr.shape}")
        object.__setattr__(self, "m", arr)
        self.m.setflags(write=False)

    @property
    def trace(self) -> complex:
        """Operator trace restricted to the span (basis-independent)."""
        return complex(np.trace(self.m))


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
    degenerate, the reason keyed by its index: the smallest eigenvalue of
    its Gram matrix falls below ``DEGENERACY_THRESHOLD`` times the largest
    (happens as (s, p) -> (0, 0)).  One ``eigvalsh`` covers the stack.
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

    eigs = np.linalg.eigvalsh(s)
    degenerate = {
        int(i): "basis is numerically degenerate "
        f"(eigenvalue ratio {eigs[i, 0]:.3e} / {eigs[i, -1]:.3e} below "
        f"threshold {DEGENERACY_THRESHOLD:.1e}); the sources are too close "
        "for the numerical route -- use the coincident-source limit"
        for i in np.flatnonzero(eigs[:, 0] < DEGENERACY_THRESHOLD * eigs[:, -1])
    }
    return s, degenerate


def build_gram(jet: OverlapJet, consts: PsfConstants) -> GramMatrix:
    """The 6x6 Gram matrix of one overlap jet (see :func:`build_gram_stack`).

    Raises
    ------
    DegenerateBasisError
        If the basis is numerically degenerate at this jet.
    """
    s, degenerate = build_gram_stack(jet, consts)
    if degenerate:
        raise DegenerateBasisError(degenerate[0])
    return GramMatrix(s_mat=s[0])


def build_rho_action(gram: GramMatrix) -> ActionMatrix:
    """Action matrix of the balanced two-source mixed state.

    rho maps basis vector j to (S[0, j] Psi1 + S[1, j] Psi2) / 2, so only
    the first two rows are populated; the trace is exactly 1.
    """
    s = gram.s_mat
    m = np.zeros_like(s)
    m[0, :] = s[0, :] / 2.0
    m[1, :] = s[1, :] / 2.0
    return ActionMatrix(m=m)


def build_drho_action(gram: GramMatrix, coord: str) -> ActionMatrix:
    """Action matrix of the derivative of rho along one source coordinate.

    For coordinate x1 the operator is (|Psi1><Psi3| + h.c.)/2 with Psi3 the
    x1-derivative vector, which populates exactly rows 0 and 2 of the
    action matrix; the other coordinates place rows analogously per
    ``COORDINATES`` ((0,3) for z1, (1,4) for x2, (1,5) for z2).
    """
    if coord not in _DRHO_ROWS:
        raise InvalidParameterError(
            f"coord must be one of {COORDINATES}, got {coord!r}"
        )
    state_row, deriv_row = _DRHO_ROWS[coord]
    s = gram.s_mat
    m = np.zeros_like(s)
    m[state_row, :] = s[deriv_row, :] / 2.0
    m[deriv_row, :] = s[state_row, :] / 2.0
    return ActionMatrix(m=m)


def hermiticity_residual(gram: GramMatrix, action: ActionMatrix) -> float:
    """Max-norm residual of the represented-Hermiticity criterion S M = M^H S."""
    s, m = gram.s_mat, action.m
    return float(np.max(np.abs(s @ m - m.conj().T @ s)))
