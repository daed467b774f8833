"""Hopkins transmission cross coefficients (TCC).

Partially coherent imaging obeys the Hopkins bilinear model: the image
spectrum couples every pair of mask frequencies (f1, f2) through

    TCC(f1, f2) = sum_s J(s) P(s + f1) conj(P(s + f2)),

where J is the source intensity distribution and P the pupil.  On a periodic
simulation grid the mask spectrum lives on integer FFT bins, so the TCC
becomes a finite Hermitian matrix over the bins that can physically pass the
system (``|rho| <= 1 + sigma_outer``).  This module builds that matrix; the
SOCS decomposition in :mod:`repro.optics.socs` turns it into a handful of
coherent convolution kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import OpticalConfig
from ..errors import OpticsError
from .pupil import Pupil
from .source import SourceGrid, annular_source


@dataclass(frozen=True)
class TccModel:
    """The discretized TCC matrix and the frequency bins it couples."""

    #: (M, 2) signed integer FFT bin offsets (kx, ky) of the retained bins
    freq_indices: np.ndarray
    #: (M, M) Hermitian TCC matrix
    matrix: np.ndarray
    grid_size: int
    extent_nm: float
    #: pupil cutoff radius in frequency samples: NA * extent / wavelength
    na_radius_samples: float

    def __post_init__(self) -> None:
        m = self.freq_indices.shape[0]
        if self.matrix.shape != (m, m):
            raise OpticsError(
                f"TCC matrix shape {self.matrix.shape} does not match "
                f"{m} frequency bins"
            )
        hermitian_error = np.abs(self.matrix - self.matrix.conj().T).max()
        if hermitian_error > 1e-8:
            raise OpticsError(
                f"TCC matrix is not Hermitian (max asymmetry {hermitian_error:.3e})"
            )


def na_radius_in_samples(optical: OpticalConfig, extent_nm: float) -> float:
    """Pupil-edge radius measured in FFT frequency samples.

    The frequency spacing of an ``extent_nm``-periodic grid is ``1/extent``;
    the pupil edge sits at ``NA / wavelength``, hence the ratio below.  This
    is independent of the pixel count (which only sets the Nyquist limit).
    """
    return optical.numerical_aperture * extent_nm / optical.wavelength_nm


def default_source(optical: OpticalConfig, samples: int = 21) -> SourceGrid:
    """The annular source described by an :class:`OpticalConfig`."""
    return annular_source(optical.sigma_inner, optical.sigma_outer, samples)


def default_pupil(optical: OpticalConfig) -> Pupil:
    return Pupil(
        wavelength_nm=optical.wavelength_nm,
        numerical_aperture=optical.numerical_aperture,
        defocus_nm=optical.defocus_nm,
    )


def collect_passband_bins(optical: OpticalConfig, grid_size: int,
                          extent_nm: float) -> np.ndarray:
    """Integer FFT bins whose normalized frequency can reach the wafer.

    A mask frequency f contributes only if some source point shifts it into
    the pupil, i.e. ``|rho_mask| <= 1 + sigma_outer``.  Bins are also clipped
    to the grid's Nyquist range.
    """
    radius = na_radius_in_samples(optical, extent_nm)
    cutoff = radius * (1.0 + optical.sigma_outer) + 1.0
    half = grid_size // 2
    limit = int(np.ceil(cutoff))
    if limit > half - 1:
        raise OpticsError(
            "simulation grid cannot represent the optical passband "
            f"(needs Nyquist >= {limit} samples, grid_size={grid_size} "
            f"gives {half - 1}); increase grid_size or shrink the extent"
        )
    k = np.arange(-limit, limit + 1)
    kx, ky = np.meshgrid(k, k)
    keep = np.hypot(kx, ky) <= cutoff
    return np.stack([kx[keep], ky[keep]], axis=1).astype(np.int64)


def compute_tcc_matrix(optical: OpticalConfig, grid_size: int,
                       extent_nm: float, source: SourceGrid = None,
                       pupil: Pupil = None) -> TccModel:
    """Build the discrete TCC matrix for one optical configuration."""
    if source is None:
        source = default_source(optical)
    if pupil is None:
        pupil = default_pupil(optical)

    bins = collect_passband_bins(optical, grid_size, extent_nm)
    radius = na_radius_in_samples(optical, extent_nm)

    # Pupil samples: rho = source point (sigma units) + bin / radius.
    rho_x = source.fx[:, None] + bins[None, :, 0] / radius
    rho_y = source.fy[:, None] + bins[None, :, 1] / radius
    pupil_values = pupil.evaluate(rho_x, rho_y)  # (Ns, M)

    weighted = pupil_values * source.weights[:, None]
    matrix = weighted.T @ pupil_values.conj()

    # Force exact Hermitian symmetry (guards against fp round-off).
    matrix = 0.5 * (matrix + matrix.conj().T)

    return TccModel(
        freq_indices=bins,
        matrix=matrix,
        grid_size=grid_size,
        extent_nm=extent_nm,
        na_radius_samples=radius,
    )
