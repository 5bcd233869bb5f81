"""One point of the pipeline method, as the tests that read a single H use it."""

from types import SimpleNamespace

from srloc import evaluate


def pipeline_point(psf, s, p):
    """H, Gamma and rho's eigenvalues at (s, p), from ``srloc.evaluate`` by
    the pipeline method, which must serve the point by its own route."""
    ev = evaluate(psf, [s], [p], "pipeline")
    assert ev.route == ("pipeline",), (ev.route, ev.error)
    return SimpleNamespace(h=ev.h[0], gamma_mat=ev.gamma_mat[0],
                           rho_eigenvalues=ev.rho_eigenvalues[0])
