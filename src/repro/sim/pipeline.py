"""The rigorous simulation pipeline that mints golden resist patterns.

This is the left path of the paper's Figure 1 — optical model, resist model,
contour processing — standing in for Synopsys Sentaurus Lithography.  Two
fidelity modes exist:

* the **compact** mode images through cached SOCS kernels (used for dataset
  minting, where hundreds of clips share one optical setup);
* the **rigorous** mode integrates over the full discretized source via the
  Abbe formulation with a finely sampled source, which is the appropriately
  expensive reference timed in Table 4.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import ExperimentConfig
from ..errors import ResistError
from ..geometry import Grid, Point, Rect
from ..layout import (
    ContactClip,
    MaskLayout,
    ModelBasedOpc,
    build_mask_layout,
    decode_mask_rgb,
    render_transmission,
)
from ..optics import abbe_aerial_image
from ..optics.imaging import get_imager
from ..optics.source import annular_source
from ..resist import DevelopedPattern, develop, resist_window_image
from ..telemetry.trace import Tracer


@dataclass(frozen=True)
class SimulatedClip:
    """Everything the rigorous flow produces for one clip."""

    layout: MaskLayout
    aerial: np.ndarray
    pattern: DevelopedPattern
    #: binary golden-resist window image at the training resolution
    golden_window: np.ndarray


class LithographySimulator:
    """Mask -> aerial -> resist -> golden window, for one experiment config."""

    def __init__(self, config: ExperimentConfig, resist_model: str = "vtr",
                 rigorous: bool = False, source_samples: int = 41,
                 rigorous_grid_size: Optional[int] = None,
                 focus_planes_nm: Optional[tuple] = None,
                 tracer: Optional[Tracer] = None):
        """``rigorous=True`` switches to reference-fidelity settings.

        ``tracer`` lets a caller share one span tracer across simulators
        (e.g. the CLI aggregating per-stage latency over a whole mint run);
        by default each simulator records into its own.

        A rigorous simulator does not use the compact SOCS shortcut: it
        integrates the discretized source directly (Abbe), typically on a
        finer spatial grid (``rigorous_grid_size``), and accounts for the
        finite resist thickness by imaging several focus planes through the
        resist stack (``focus_planes_nm``, offsets added to the nominal
        focus) and averaging their intensities.  These are the settings
        Table 4's "Rigorous" column is timed at.
        """
        self.config = config
        self.resist_model = resist_model
        self.rigorous = rigorous
        self._source_samples = source_samples
        grid_size = config.optical.grid_size
        if rigorous and rigorous_grid_size is not None:
            grid_size = rigorous_grid_size
        self.grid = Grid(
            size=grid_size,
            extent_nm=config.tech.cropped_clip_nm,
        )
        self.tracer = tracer if tracer is not None else Tracer()
        if rigorous:
            self._fine_source = annular_source(
                config.optical.sigma_inner,
                config.optical.sigma_outer,
                samples=source_samples,
            )
            self._focus_planes = tuple(focus_planes_nm or (0.0,))

    @property
    def clip_center(self) -> Point:
        mid = self.config.tech.cropped_clip_nm / 2.0
        return Point(mid, mid)

    # -- stages ---------------------------------------------------------------

    def aerial_image(self, layout: MaskLayout) -> np.ndarray:
        """Optical-model stage: transmission map to aerial intensity."""
        with self.tracer.span("rasterize"):
            transmission = render_transmission(layout, self.grid)
        return self._image_transmission(transmission)

    def _image_transmission(self, transmission: np.ndarray) -> np.ndarray:
        """Aerial intensity of an already-rasterized transmission map."""
        with self.tracer.span("optical"):
            if self.rigorous:
                intensity = np.zeros_like(transmission, dtype=np.float64)
                for offset in self._focus_planes:
                    optical = dataclasses.replace(
                        self.config.optical,
                        defocus_nm=self.config.optical.defocus_nm + offset,
                    )
                    intensity += abbe_aerial_image(
                        transmission,
                        optical,
                        self.grid.extent_nm,
                        source=self._fine_source,
                    )
                return intensity / len(self._focus_planes)
            imager = get_imager(
                self.config.optical,
                self.grid.extent_nm,
                self.config.optical.grid_size,
            )
            return imager.aerial_image(transmission)

    def develop_pattern(self, aerial: np.ndarray) -> DevelopedPattern:
        """Resist-model stage."""
        with self.tracer.span("resist"):
            return develop(
                aerial, self.grid, self.config.resist, model=self.resist_model
            )

    def golden_window(self, pattern: DevelopedPattern) -> np.ndarray:
        """Contour-processing stage: crop + resample the target's window."""
        with self.tracer.span("contour"):
            return resist_window_image(
                pattern,
                self.clip_center,
                self.config.tech.resist_window_nm,
                self.config.image.resist_image_px,
            )

    def transmission_from_mask_image(self, mask_rgb: np.ndarray) -> np.ndarray:
        """Mask transmission on the simulation grid from a rendered RGB mask.

        The serving fallback enters the simulator holding only the
        Section 3.1 color encoding, not the source :class:`MaskLayout`; all
        three feature classes transmit on a binary mask, so the channel sum
        (clipped to 1) recovers the transmission map to within one image
        pixel of rasterization error.
        """
        mask_rgb = np.asarray(mask_rgb, dtype=np.float64)
        target, neighbors, srafs = decode_mask_rgb(mask_rgb)
        coverage = np.clip(target + neighbors + srafs, 0.0, 1.0)
        size = self.grid.size
        if coverage.shape == (size, size):
            return coverage
        # Resample the image raster onto the simulation grid (area-average
        # when shrinking by an integer factor, bilinear otherwise).
        in_size = coverage.shape[0]
        if coverage.shape[0] != coverage.shape[1]:
            raise ResistError(
                f"mask image must be square, got {coverage.shape}"
            )
        if in_size % size == 0:
            factor = in_size // size
            return coverage.reshape(
                size, factor, size, factor
            ).mean(axis=(1, 3))
        from scipy import ndimage

        scale = in_size / size
        centers = (np.arange(size) + 0.5) * scale - 0.5
        rows, cols = np.meshgrid(centers, centers, indexing="ij")
        return ndimage.map_coordinates(
            coverage, [rows, cols], order=1, mode="nearest"
        )

    def simulate_mask_image(self, mask_rgb: np.ndarray) -> np.ndarray:
        """Golden-window simulation entering at a rendered mask image.

        This is the serving degradation path: when the GAN fails a clip, the
        rigorous substrate answers it from the same ``(3, H, W)`` encoding
        the model consumed.  Returns the binary resist window at the
        training resolution; raises :class:`ResistError` when the target
        fails to print (the caller decides how to degrade further).
        """
        with self.tracer.span("rasterize"):
            transmission = self.transmission_from_mask_image(mask_rgb)
        aerial = self._image_transmission(transmission)
        pattern = self.develop_pattern(aerial)
        return self.golden_window(pattern)

    # -- whole-clip entry points ------------------------------------------------

    def simulate_layout(self, layout: MaskLayout) -> SimulatedClip:
        aerial = self.aerial_image(layout)
        pattern = self.develop_pattern(aerial)
        window = self.golden_window(pattern)
        return SimulatedClip(
            layout=layout, aerial=aerial, pattern=pattern, golden_window=window
        )

    def simulate_clip(self, clip: ContactClip,
                      model_based_opc: bool = False) -> SimulatedClip:
        """RET + simulation for a drawn clip.

        With ``model_based_opc=True`` the target contact additionally goes
        through iterative model-based correction driven by this simulator.
        """
        layout = build_mask_layout(clip)
        if model_based_opc:
            layout = self.refine_target_opc(layout)
        return self.simulate_layout(layout)

    def printed_window_bbox(self, pattern: DevelopedPattern) -> Rect:
        """Sub-grid-resolution bounding box of the printed target contact.

        Measured on the finely resampled resist window rather than the raw
        simulation grid, so model-based OPC feedback is not quantized to the
        coarse optical pixel.
        """
        from ..geometry.contours import bounding_box_of_mask

        window_nm = self.config.tech.resist_window_nm
        out_px = self.config.image.resist_image_px
        window = resist_window_image(
            pattern, self.clip_center, window_nm, out_px
        )
        box = bounding_box_of_mask(window)
        if box is None:  # pragma: no cover - window extraction already raises
            raise ResistError("target contact failed to print")
        rlo, clo, rhi, chi = box
        nm = window_nm / out_px
        origin_x = self.clip_center.x - window_nm / 2.0
        origin_y = self.clip_center.y - window_nm / 2.0
        return Rect(
            origin_x + clo * nm,
            origin_y + (out_px - rhi) * nm,
            origin_x + chi * nm,
            origin_y + (out_px - rlo) * nm,
        )

    def refine_target_opc(self, layout: MaskLayout) -> MaskLayout:
        """Model-based OPC of the target contact on top of the rule-based pass."""

        def printed_bbox(candidate: Rect) -> Rect:
            trial = MaskLayout(
                tech=layout.tech,
                array_type=layout.array_type,
                target=candidate,
                neighbors=layout.neighbors,
                srafs=layout.srafs,
                drawn_target=layout.drawn_target,
                extent_nm=layout.extent_nm,
            )
            aerial = self.aerial_image(trial)
            pattern = self.develop_pattern(aerial)
            return self.printed_window_bbox(pattern)

        engine = ModelBasedOpc(printed_bbox)
        refined = engine.correct(layout.drawn_target, initial=layout.target)
        return MaskLayout(
            tech=layout.tech,
            array_type=layout.array_type,
            target=refined,
            neighbors=layout.neighbors,
            srafs=layout.srafs,
            drawn_target=layout.drawn_target,
            extent_nm=layout.extent_nm,
        )
