"""Gradient-based inverse lithography through the trained generator.

The descent treats the generator as a differentiable forward proxy for the
rigorous simulator.  The GREEN (target) channel of the Section 3.1 mask
encoding is parameterized as ``sigmoid(steepness * theta)`` — always a
valid transmission in [0, 1] — while the RED neighbors and BLUE SRAFs stay
fixed at their rule-RET geometry, matching production practice of locking
context features during target correction.  Each step:

1. forward the composed mask through the generator and score the proxy
   objective (:class:`~repro.ilt.objective.ProxyObjective`);
2. pull the objective's gradient back to the mask *input* through
   :meth:`repro.nn.Sequential.input_gradient` — the inference gradient
   path, so the model's optimizer state is provably untouched;
3. chain through the sigmoid onto ``theta`` and take a momentum step with
   a max-normalized gradient (the step size is then in theta units,
   independent of the proxy loss scale);
4. anneal the sigmoid steepness (:mod:`repro.ilt.schedule`).

The proxy never gets the final word: candidates are periodically projected
and re-simulated through the rigorous pipeline, and only the best *verified*
candidate is reported.  ``theta`` is initialized from the rule-OPC mask, so
the very first verified candidate is (numerically) the rule-OPC solution
and a verified result can only improve on it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..config import ExperimentConfig
from ..errors import IltError
from ..layout import ContactClip, MaskLayout, build_mask_layout
from ..layout.coloring import GREEN, render_mask_rgb
from ..nn.functional import sigmoid, sigmoid_grad
from .objective import ProxyObjective, ideal_resist_window
from .schedule import steepness_at
from .verify import MaskVerifier, Verification

#: coverage clamp for the logit initialization: keeps the initial projection
#: within 1e-3 of the rule-OPC rendering while bounding ``theta``
_INIT_EPS = 1e-3


@dataclass(frozen=True)
class IltOutcome:
    """Everything one clip's mask optimization produced.

    ``best`` is the lowest-EPE *simulator-verified* candidate;
    ``unoptimized`` and ``rule_opc`` are the two baselines (drawn mask with
    no RET, and the rule-based SRAF+OPC mask) verified through the same
    pipeline so the comparison is apples-to-apples.
    """

    clip: ContactClip
    steps: int
    best: Verification
    verifications: Tuple[Verification, ...]
    proxy_losses: Tuple[float, ...]
    unoptimized: Verification
    rule_opc: Verification

    @property
    def epe_cap_nm(self) -> float:
        """Aggregation cap: half the resist window (max measurable EPE)."""
        return self.clip.tech.resist_window_nm / 2.0

    @property
    def epe_ilt_nm(self) -> float:
        return self.best.epe_capped(self.epe_cap_nm)

    @property
    def epe_unoptimized_nm(self) -> float:
        return self.unoptimized.epe_capped(self.epe_cap_nm)

    @property
    def epe_rule_opc_nm(self) -> float:
        return self.rule_opc.epe_capped(self.epe_cap_nm)

    @property
    def improved_vs_unoptimized(self) -> bool:
        return self.epe_ilt_nm < self.epe_unoptimized_nm

    @property
    def improved_vs_rule_opc(self) -> bool:
        return self.epe_ilt_nm <= self.epe_rule_opc_nm

    def summary(self) -> dict:
        """JSON-ready per-clip record."""
        return {
            "array_type": self.clip.array_type.value,
            "steps": self.steps,
            "verifications": len(self.verifications),
            "best_step": self.best.step,
            "epe_ilt_nm": round(self.epe_ilt_nm, 4),
            "epe_unoptimized_nm": round(self.epe_unoptimized_nm, 4),
            "epe_rule_opc_nm": round(self.epe_rule_opc_nm, 4),
            "unoptimized_printed": self.unoptimized.printed,
            "improved_vs_unoptimized": self.improved_vs_unoptimized,
            "improved_vs_rule_opc": self.improved_vs_rule_opc,
            "final_proxy_loss": self.proxy_losses[-1],
        }


def drawn_mask_layout(clip: ContactClip) -> MaskLayout:
    """The no-RET baseline: drawn contacts as-is, no OPC bias, no SRAFs."""
    return MaskLayout(
        tech=clip.tech,
        array_type=clip.array_type,
        target=clip.target,
        neighbors=clip.neighbors,
        srafs=(),
        drawn_target=clip.target,
        extent_nm=clip.extent_nm,
    )


def optimized_layout(outcome: IltOutcome) -> MaskLayout:
    """Rectangularized layout of the best mask, for process-window sweeps.

    :func:`~repro.sim.process_window.sweep_process_window` consumes
    :class:`~repro.layout.MaskLayout` geometry, so the optimized GREEN
    channel is reduced to its bounding box at half coverage — faithful for
    the near-rectangular masks the anneal converges to.
    """
    from ..geometry import Rect
    from ..geometry.contours import bounding_box_of_mask

    clip = outcome.clip
    green = outcome.best.mask[GREEN]
    box = bounding_box_of_mask(green)
    if box is None:
        raise IltError("optimized mask has an empty target channel")
    rlo, clo, rhi, chi = box
    size = green.shape[0]
    nm = clip.extent_nm / size
    target = Rect(clo * nm, (size - rhi) * nm, chi * nm, (size - rlo) * nm)
    opc = build_mask_layout(clip)
    return MaskLayout(
        tech=clip.tech,
        array_type=clip.array_type,
        target=target,
        neighbors=opc.neighbors,
        srafs=opc.srafs,
        drawn_target=clip.target,
        extent_nm=clip.extent_nm,
    )


def process_window_comparison(config: ExperimentConfig,
                              outcome: IltOutcome) -> dict:
    """Process-window robustness of the optimized mask vs. rule OPC.

    Sweeps both layouts over the same (dose, defocus) grid with
    :func:`~repro.sim.process_window.sweep_process_window` and reports
    depth of focus and exposure latitude side by side.  Expensive (a full
    aerial simulation per grid condition per layout), so callers opt in.
    """
    from ..sim.process_window import sweep_process_window

    rows = {}
    layouts = {
        "rule_opc": build_mask_layout(outcome.clip),
        "ilt": optimized_layout(outcome),
    }
    for name, layout in layouts.items():
        result = sweep_process_window(layout, config)
        rows[name] = {
            "nominal_cd_nm": round(float(result.nominal_cd_nm), 4),
            "depth_of_focus_nm": round(float(result.depth_of_focus_nm()), 4),
            "exposure_latitude": round(float(result.exposure_latitude()), 6),
        }
    return rows


def optimize_clip(
    config: ExperimentConfig,
    model,
    clip: ContactClip,
    *,
    verifier: Optional[MaskVerifier] = None,
    tracer=None,
    on_step: Optional[Callable[[int, float], None]] = None,
) -> IltOutcome:
    """Optimize one clip's target-channel mask against the proxy + verifier.

    ``model`` is a trained :class:`~repro.core.LithoGan`; only its CGAN
    generator is consulted, through the inference gradient path.  The loop
    is fully deterministic — no RNG is drawn — so two runs on the same
    model and clip produce bit-identical masks.

    Raises :class:`~repro.errors.IltError` when no candidate (not even the
    rule-OPC initialization) survives simulator verification.
    """
    ilt = config.ilt
    image_px = config.model.image_size
    if verifier is None:
        verifier = MaskVerifier(config, rigorous=ilt.rigorous, tracer=tracer)

    opc_layout = build_mask_layout(clip)
    unoptimized = verifier.verify(
        render_mask_rgb(drawn_mask_layout(clip), image_px), clip, step=-1
    )
    fixed = render_mask_rgb(opc_layout, image_px)
    rule_opc = verifier.verify(fixed, clip, step=-1)

    generator = model.cgan.generator
    objective = ProxyObjective(ideal_resist_window(config, clip))

    green = np.clip(
        fixed[GREEN].astype(np.float64), _INIT_EPS, 1.0 - _INIT_EPS
    )
    steep0 = steepness_at(0, ilt.steps, ilt.steepness_start,
                          ilt.steepness_end)
    theta = np.log(green / (1.0 - green)) / steep0
    velocity = np.zeros_like(theta)

    def compose(continuous_green: np.ndarray) -> np.ndarray:
        mask = fixed.copy()
        mask[GREEN] = continuous_green.astype(np.float32)
        return mask

    def verify_candidate(step: int, steepness: float) -> Verification:
        candidate = compose(sigmoid(steepness * theta))
        return verifier.verify(candidate, clip, step=step)

    losses: List[float] = []
    candidates: List[Verification] = [verify_candidate(0, steep0)]
    for step in range(ilt.steps):
        steepness = steepness_at(step, ilt.steps, ilt.steepness_start,
                                 ilt.steepness_end)
        mask_green = sigmoid(steepness * theta)
        mask = compose(mask_green)
        span = (tracer.span("ilt_step", step=step)
                if tracer is not None else nullcontext())
        with span:
            grad_in = generator.input_gradient(mask[None], objective)
        losses.append(objective.loss)
        if on_step is not None:
            on_step(step, objective.loss)
        grad_theta = (
            grad_in[0, GREEN].astype(np.float64)
            * steepness
            * sigmoid_grad(mask_green)
        )
        scale = float(np.max(np.abs(grad_theta)))
        if scale > 0.0:
            grad_theta = grad_theta / scale
        velocity = ilt.momentum * velocity + grad_theta
        theta = theta - ilt.learning_rate * velocity
        if (step + 1) % ilt.verify_every == 0 or step == ilt.steps - 1:
            candidates.append(verify_candidate(step + 1, steepness))

    printed = [c for c in candidates if c.printed]
    if not printed:
        raise IltError(
            f"no candidate mask printed under simulator verification "
            f"({len(candidates)} candidates tried over {ilt.steps} steps)",
            attempts=len(candidates),
        )
    best = min(printed, key=lambda c: (c.epe_nm, c.step))
    return IltOutcome(
        clip=clip,
        steps=ilt.steps,
        best=best,
        verifications=tuple(candidates),
        proxy_losses=tuple(losses),
        unoptimized=unoptimized,
        rule_opc=rule_opc,
    )
