"""MIDAS configuration.

Extends the CATAPULT configuration with the maintenance-specific knobs of
the paper (Section 7.1 parameter settings): the evolution ratio threshold
ε, the swapping thresholds κ and λ (the paper sets λ = κ), the GFD
distance measure and the swap-scan controls.

Note on ε scale: the paper's default ε = 0.1 is calibrated to its
datasets.  The synthetic databases here are smaller and their GFDs
correspondingly more stable, so the default ε is scaled down; benchmark
E-FIG11 sweeps it exactly as Exp 1 does.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catapult.pipeline import CatapultConfig


@dataclass(kw_only=True)
class MidasConfig(CatapultConfig):
    """All knobs of the MIDAS maintainer (keyword-only, like its base)."""

    #: Evolution ratio threshold ε: GFD distance at or above it marks a
    #: major (Type 1) modification.
    epsilon: float = 0.002
    #: Swapping threshold κ (Equation 2 and sw1).
    kappa: float = 0.1
    #: Swapping threshold λ (sw2); the paper sets λ = κ.
    lambda_: float = 0.1
    #: GFD distance measure (see repro.graphlets.DISTANCE_MEASURES).
    distance_measure: str = "euclidean"
    #: GED method for diversity (MIDAS uses the tighter GED'_l).
    ged_method: str = "tight_lower"
    #: Maximum number of swap scans per maintenance round.
    max_scans: int = 3
    #: Use the adaptive κ_t schedule of Lemma 6.3 instead of fixed κ.
    adaptive_kappa: bool = False
    #: Initial approximation-ratio lower bound σ_0 for the schedule.
    sigma_initial: float = 0.25
    #: Size of the small-pattern tray (η ≤ 2, Section 3.1 remark);
    #: 0 disables the tray entirely.
    tray_edges: int = 0
    #: Number of 2-edge path patterns in the small-pattern tray.
    tray_paths: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must be in [0, 1]")
        if self.lambda_ < 0:
            raise ValueError("lambda_ must be non-negative")
        if self.max_scans < 1:
            raise ValueError("max_scans must be positive")
        if self.tray_edges < 0 or self.tray_paths < 0:
            raise ValueError("tray sizes must be non-negative")


__all__ = ["MidasConfig"]
