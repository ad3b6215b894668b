"""Eigensystem of the symmetric normalized Laplacian, and the spectral Green's function built from it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerance
from .errors import NumericalError, ValidationError
from .graph import Distribution, WeightedDigraph, validate_out_degrees
from .greens import GreensMatrix


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigensystem of I - D^{-1/2} W D^{-1/2} with graph data attached.

    Eigenvectors are orthonormal columns; the zero mode is proportional to
    sqrt(deg). Degrees and volume ride along because ``spectral_greens``
    needs them: D^{1/2} conjugates the eigen-sum, and pi = deg / vol.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degrees: np.ndarray
    volume: float


def normalized_laplacian(g: WeightedDigraph) -> np.ndarray:
    """The symmetric operator I - D^{-1/2} W D^{-1/2} of an undirected graph."""
    if not g.undirected:
        raise ValidationError("spectral formulas require an undirected graph")
    validate_out_degrees(g)
    d = g.degrees
    root = np.outer(d, d)
    L = g.weights
    L /= np.sqrt(root, out=root)
    del root
    # I minus the quotient, as graph.walk_laplacian builds I - P: bit for bit np.eye(n) minus it
    np.subtract(0.0, L, out=L)
    L.flat[:: g.n + 1] += 1.0
    return L


def decompose(g: WeightedDigraph) -> SpectralDecomposition:
    """Ascending eigendecomposition of the normalized Laplacian of ``g``.

    Exactly one eigenvalue may fall below the zero threshold; more than one
    means the graph is disconnected. The basis itself is checked where it is
    used: ``pipeline.spectral_routes`` requires every spectral value to match
    the solved chain's.
    """
    try:
        lam, phi = np.linalg.eigh(normalized_laplacian(g))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from None
    zero_modes = int(np.count_nonzero(lam < tolerance.bound(g.n, 1.0, tolerance.RESIDUAL)))
    if zero_modes == 0:
        raise NumericalError(f"no zero eigenvalue found (smallest {lam[0]:.3e})")
    if zero_modes > 1:
        raise NumericalError("graph disconnected: repeated zero eigenvalue")
    lam.setflags(write=False)
    phi.setflags(write=False)
    return SpectralDecomposition(lam, phi, g.degrees, g.volume)


def spectral_greens(dec: SpectralDecomposition) -> GreensMatrix:
    """Green's function from the eigensystem alone: the route every other spectral quantity is read off.

    G = D^{-1/2} (sum_{k>=1} phi_k phi_k^T / lambda_k) D^{1/2}, so
    G(i, j) = sqrt(deg(j) / deg(i)) * sum_{k>=1} phi_ki phi_kj / lambda_k;
    the zero mode is excluded.
    """
    phi = dec.eigenvectors[:, 1:]
    values = (phi / dec.eigenvalues[None, 1:]) @ phi.T
    root = np.sqrt(dec.degrees)
    values *= root[None, :] / root[:, None]
    return GreensMatrix(values, target=Distribution(dec.degrees / dec.volume))
