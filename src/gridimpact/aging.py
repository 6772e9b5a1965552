"""Transformer thermal aging laws for overload scenarios.

Two IEEE loading-guide style laws: the aging acceleration factor
``F_AA`` as a function of the winding hottest-spot temperature, and the
equal-sharing load split across a parallel transformer bank, which gives
each unit's loading fraction when some units are out of service.

Hotspot temperature is an input, not the output of a thermal ODE; a full
thermal model with cooling stages is out of scope.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Iterable, Sequence

__all__ = ["aging_acceleration", "parallel_overload"]


def aging_acceleration(hotspot: float) -> float:
    """Aging acceleration factor F_AA at a hottest-spot temperature in C.

    F_AA = exp(15000/383 - 15000/(theta + 273)); unity at the 110 C
    reference, 92.1 at 160 C, about 1723 at 200 C.
    """
    if not math.isfinite(hotspot):
        raise ValueError(f"hotspot must be finite, got {hotspot}")
    if hotspot <= -273.0:
        raise ValueError("hotspot must be above absolute zero")
    return math.exp(15000.0 / 383.0 - 15000.0 / (hotspot + 273.0))


def parallel_overload(
    total_load: float,
    units: Sequence[float],
    out_of_service: Iterable[int] = (),
) -> list[float]:
    """Per-unit loading fractions for a parallel transformer bank.

    The bank carries ``total_load`` MVA split equally across in-service
    units; each unit's loading fraction is its share over its own
    rating. Out-of-service units (by integer index into ``units``)
    carry 0. The load and every rating must be finite.
    """
    if not (math.isfinite(total_load) and total_load >= 0.0):
        raise ValueError(f"total_load must be finite and non-negative, got {total_load}")
    for i, rating in enumerate(units):
        if not (math.isfinite(rating) and rating > 0.0):
            raise ValueError(f"unit {i} has non-positive or non-finite rating {rating}")
    out = set(out_of_service)
    not_int = [i for i in out if not isinstance(i, Integral)]
    if not_int:
        raise ValueError(f"out_of_service indices must be integers, got {not_int}")
    bad = [i for i in out if not 0 <= i < len(units)]
    if bad:
        raise ValueError(f"out_of_service indices out of range: {sorted(bad)}")
    in_service = [i for i in range(len(units)) if i not in out]
    if not in_service:
        raise ValueError("all units out of service")
    share = total_load / len(in_service)
    return [0.0 if i in out else share / rating for i, rating in enumerate(units)]
