"""Shared utilities: sampling and statistics."""

from .sampling import LazySampler
from .stats import mean, percentile, stddev

__all__ = [
    "LazySampler",
    "mean",
    "percentile",
    "stddev",
]
