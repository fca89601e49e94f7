"""One experiment driver per paper figure (plus ablations)."""

from . import (
    ablations,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    store,
)

__all__ = [
    "ablations",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "store",
]
