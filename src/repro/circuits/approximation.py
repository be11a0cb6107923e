"""Filter approximation functions and order estimation.

Transfer-function-level companions to the element-level synthesis in
:mod:`repro.circuits.synthesis`: closed-form attenuation of the three
families (Butterworth, Chebyshev I, Cauer/elliptic — the last via
scipy's prototype), and minimum-order estimation for a
passband-ripple/stopband-rejection spec.

These serve two purposes in the reproduction:

* an independent cross-check of the MNA-measured ladder responses (the
  test suite compares the two), and
* spec-driven design: "how many stages does the image-reject filter
  need for 30 dB at 1.225 GHz?" — the question behind Table 1's
  "3 stage" filter entry.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SynthesisError
from ..passives.filters import FilterFamily, FilterSpec


def _validate(order: int, ripple_db: float | None = None) -> None:
    if order < 1:
        raise SynthesisError(f"order must be >= 1, got {order}")
    if ripple_db is not None and ripple_db <= 0:
        raise SynthesisError(
            f"ripple must be positive dB, got {ripple_db}"
        )


def butterworth_attenuation_db(order: int, normalized_freq: float) -> float:
    """Attenuation of an order-n Butterworth lowpass at ``w/wc``."""
    _validate(order)
    if normalized_freq < 0:
        raise SynthesisError("frequency ratio cannot be negative")
    return 10.0 * math.log10(1.0 + normalized_freq ** (2 * order))


def chebyshev_attenuation_db(
    order: int, ripple_db: float, normalized_freq: float
) -> float:
    """Attenuation of an order-n Chebyshev-I lowpass at ``w/wc``.

    ``A = 10 log10(1 + eps^2 Tn^2(w))`` with ``Tn`` the Chebyshev
    polynomial (``cosh`` continuation outside the passband).
    """
    _validate(order, ripple_db)
    if normalized_freq < 0:
        raise SynthesisError("frequency ratio cannot be negative")
    eps_sq = 10.0 ** (ripple_db / 10.0) - 1.0
    w = normalized_freq
    if w <= 1.0:
        tn = math.cos(order * math.acos(w))
    else:
        tn = math.cosh(order * math.acosh(w))
    return 10.0 * math.log10(1.0 + eps_sq * tn * tn)


def elliptic_attenuation_db(
    order: int,
    ripple_db: float,
    stop_attenuation_db: float,
    normalized_freq: float,
) -> float:
    """Attenuation of an order-n elliptic lowpass at ``w/wc``.

    Evaluated from scipy's ``ellipap`` prototype transfer function; used
    as the reference response for Cauer designs.  scipy is imported here,
    not at module load: no CLI or GPS path calls this function, and
    ``scipy.signal`` would otherwise dominate the package's import time.
    """
    from scipy import signal

    _validate(order, ripple_db)
    if stop_attenuation_db <= ripple_db:
        raise SynthesisError(
            "stopband attenuation must exceed the passband ripple"
        )
    z, p, k = signal.ellipap(order, ripple_db, stop_attenuation_db)
    s = 1j * normalized_freq
    numerator = k * np.prod(s - z) if len(z) else k
    denominator = np.prod(s - p)
    magnitude = abs(numerator / denominator)
    if magnitude == 0.0:
        return math.inf
    return -20.0 * math.log10(magnitude)


def minimum_order(
    family: FilterFamily,
    ripple_db: float,
    stop_attenuation_db: float,
    selectivity: float,
    max_order: int = 25,
) -> int:
    """Smallest order meeting ``stop_attenuation_db`` at ``w_s/w_c``.

    Parameters
    ----------
    family:
        Approximation family.
    ripple_db:
        Passband ripple (used as the 3 dB proxy for Butterworth).
    stop_attenuation_db:
        Required stopband attenuation.
    selectivity:
        Stopband-to-passband edge ratio ``w_s / w_c`` (> 1).
    max_order:
        Search cap.

    Raises
    ------
    SynthesisError
        If the selectivity is not > 1 or no order up to ``max_order``
        meets the spec.
    """
    if selectivity <= 1.0:
        raise SynthesisError(
            f"selectivity must exceed 1, got {selectivity}"
        )
    for order in range(1, max_order + 1):
        if family is FilterFamily.BUTTERWORTH:
            attenuation = butterworth_attenuation_db(order, selectivity)
        elif family is FilterFamily.CHEBYSHEV:
            attenuation = chebyshev_attenuation_db(
                order, ripple_db, selectivity
            )
        else:
            attenuation = elliptic_attenuation_db(
                order, ripple_db, stop_attenuation_db, selectivity
            )
        if attenuation >= stop_attenuation_db:
            return order
    raise SynthesisError(
        f"no {family.value} filter of order <= {max_order} achieves "
        f"{stop_attenuation_db} dB at selectivity {selectivity}"
    )


def bandpass_selectivity(spec: FilterSpec) -> float:
    """Equivalent lowpass selectivity of a bandpass stopband point.

    The lowpass-to-bandpass transform maps a bandpass frequency ``f`` to
    the normalized lowpass frequency
    ``|f/f0 - f0/f| / FBW``; the selectivity of the spec's stopband
    point is that value.
    """
    if spec.stop_offset_hz is None:
        raise SynthesisError(
            f"spec {spec.name!r} defines no stopband point"
        )
    f_stop = spec.center_hz - spec.stop_offset_hz
    if f_stop <= 0:
        f_stop = spec.center_hz + spec.stop_offset_hz
    ratio = f_stop / spec.center_hz
    return abs(ratio - 1.0 / ratio) / spec.fractional_bandwidth


def required_order(spec: FilterSpec, max_order: int = 25) -> int:
    """Minimum prototype order for a bandpass spec's stopband demand."""
    if spec.stop_attenuation_db is None:
        raise SynthesisError(
            f"spec {spec.name!r} defines no stopband requirement"
        )
    return minimum_order(
        spec.family,
        spec.ripple_db,
        spec.stop_attenuation_db,
        bandpass_selectivity(spec),
        max_order=max_order,
    )
