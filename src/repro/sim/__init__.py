"""Rigorous lithography simulation pipeline (the golden-data path of Fig. 1)."""

from .pipeline import LithographySimulator, SimulatedClip
from .process_window import ProcessWindowResult, sweep_process_window

__all__ = [
    "LithographySimulator",
    "SimulatedClip",
    "ProcessWindowResult",
    "sweep_process_window",
]
