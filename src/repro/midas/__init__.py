"""MIDAS: selective, swap-based maintenance of canned patterns."""

from .calibration import EpsilonRecommendation, recommend_epsilon
from .baselines import (
    NoMaintainBaseline,
    RandomSwapMaintainer,
    from_scratch,
    maintenance_report_summary,
)
from .config import MidasConfig
from .detector import Classification, ModificationDetector, ModificationType
from .history import HistoryEntry, MaintenanceHistory
from .maintainer import MaintenanceReport, Midas
from .pruning import PruningContext
from .query_log import LogWeightedSwapper, QueryLog
from .small_patterns import SmallPatternTray
from .swap import MultiScanSwapper, SwapOutcome, SwapRecord, kappa_schedule

__all__ = [
    "Classification",
    "EpsilonRecommendation",
    "HistoryEntry",
    "MaintenanceHistory",
    "MaintenanceReport",
    "Midas",
    "MidasConfig",
    "ModificationDetector",
    "ModificationType",
    "MultiScanSwapper",
    "NoMaintainBaseline",
    "LogWeightedSwapper",
    "PruningContext",
    "QueryLog",
    "SmallPatternTray",
    "RandomSwapMaintainer",
    "SwapOutcome",
    "SwapRecord",
    "from_scratch",
    "kappa_schedule",
    "recommend_epsilon",
    "maintenance_report_summary",
]
