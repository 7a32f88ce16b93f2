"""Unit conventions and conversion helpers used across the library.

Conventions
-----------
* **Time** is an integer number of *nanoseconds* (``int``). Using
  integers keeps event ordering exact and makes latency arithmetic
  reproducible across platforms.
* **Power** is a ``float`` in *watts*; **energy** is a ``float`` in
  *joules* (power integrated over seconds).
* **Voltage** is a ``float`` in *volts*.
* **Rates** (request arrival rates) are ``float`` events per second.

The constants below convert the common engineering units into the
canonical ones, e.g. ``5 * units.US`` is five microseconds in
nanoseconds.
"""

from __future__ import annotations

import math
from typing import Any

# -- time ------------------------------------------------------------------
NS: int = 1
"""One nanosecond (the base time unit)."""

US: int = 1_000
"""One microsecond, in nanoseconds."""

MS: int = 1_000_000
"""One millisecond, in nanoseconds."""

S: int = 1_000_000_000
"""One second, in nanoseconds."""


def whole_ns(
    value: Any,
    what: str,
    error: type[Exception] = ValueError,
    minimum: int | None = None,
) -> int:
    """``value`` as int nanoseconds; ``error`` unless it is whole (and at
    least ``minimum``, when given).

    Truncating a fraction would change the model behind its back
    (``int(0.5)`` is a zero-length job), so times and durations must
    arrive whole: round in the model, not in the kernel. The one check
    behind ``Simulator.schedule``, the timers, ``Request`` and
    ``Core.submit``; callers keep a ``type(x) is int`` fast path in
    front of it.
    """
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} must be an integer, got {value!r}") from None
    if as_int != value:
        raise error(
            f"{what} must be whole nanoseconds, got {value!r} "
            "(round in the model, not in the kernel)"
        )
    if minimum is not None and as_int < minimum:
        raise error(f"{what} must be at least {minimum} ns, got {value!r}")
    return as_int


def ns_to_s(time_ns: int | float) -> float:
    """Convert a duration in nanoseconds to seconds."""
    return time_ns / S


def ns_to_us(time_ns: int | float) -> float:
    """Convert a duration in nanoseconds to microseconds."""
    return time_ns / US


def ns_to_ms(time_ns: int | float) -> float:
    """Convert a duration in nanoseconds to milliseconds."""
    return time_ns / MS


def us_to_ns(time_us: float) -> int:
    """Convert a duration in microseconds to integer nanoseconds."""
    return round(time_us * US)


def ms_to_ns(time_ms: float) -> int:
    """Convert a duration in milliseconds to integer nanoseconds."""
    return round(time_ms * MS)


def s_to_ns(time_s: float) -> int:
    """Convert a duration in seconds to integer nanoseconds."""
    return round(time_s * S)


# -- power / energy ---------------------------------------------------------
MW: float = 1e-3
"""One milliwatt, in watts."""

UJ: float = 1e-6
"""One microjoule, in joules."""


def joules(power_w: float, duration_ns: int | float) -> float:
    """Energy in joules of ``power_w`` watts sustained for ``duration_ns``."""
    return power_w * ns_to_s(duration_ns)


def watts(energy_j: float, duration_ns: int | float) -> float:
    """Average power in watts given energy over a duration.

    Raises
    ------
    ValueError
        If the duration is not strictly positive.
    """
    if duration_ns <= 0:
        raise ValueError(f"duration must be positive, got {duration_ns}")
    return energy_j / ns_to_s(duration_ns)


# -- voltage ----------------------------------------------------------------
MV: float = 1e-3
"""One millivolt, in volts."""


def slew_time_ns(delta_v: float, slew_v_per_ns: float) -> int:
    """Time for a voltage regulator to traverse ``delta_v`` volts.

    Rounded *up* to whole nanoseconds so a quantized ramp never
    finishes early — the modelled output voltage therefore never
    exceeds the physical slew rate.

    Parameters
    ----------
    delta_v:
        Magnitude of the voltage change in volts (sign is ignored).
    slew_v_per_ns:
        Regulator slew rate in volts per nanosecond (e.g. FIVR
        2 mV/ns => ``0.002``).
    """
    if slew_v_per_ns <= 0:
        raise ValueError(f"slew rate must be positive, got {slew_v_per_ns}")
    return max(0, math.ceil(abs(delta_v) / slew_v_per_ns - 1e-12))
