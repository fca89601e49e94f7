"""Shared utilities: sampling and statistics."""

from .sampling import LazySampler
from .stats import ks_similarity, mean, percentile, stddev

__all__ = [
    "LazySampler",
    "ks_similarity",
    "mean",
    "percentile",
    "stddev",
]
