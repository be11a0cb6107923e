"""Figure-of-merit computation (paper §4.4, Fig. 6).

The paper folds the three assessment axes into one number::

    FoM = performance * (1 / size) * (1 / cost)

where size and cost are normalised to the reference build-up, "the less
area and the less cost, the better, therefore the reciprocal values are
used".  For more complicated cases the paper mentions weighting factors;
:class:`FomWeights` provides them as exponents, so the unweighted product
is the all-ones case and a weight of zero removes an axis entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SpecificationError


@dataclass(frozen=True)
class FomWeights:
    """Exponential weights for the three FoM axes.

    ``FoM = perf^wp * (1/size)^ws * (1/cost)^wc``; all ones reproduces
    the paper's plain product.
    """

    performance: float = 1.0
    size: float = 1.0
    cost: float = 1.0

    def __post_init__(self) -> None:
        for label, value in (
            ("performance", self.performance),
            ("size", self.size),
            ("cost", self.cost),
        ):
            if not math.isfinite(value) or value < 0:
                raise SpecificationError(
                    f"{label} weight must be a non-negative finite "
                    f"number, got {value}"
                )


@dataclass(frozen=True)
class FomEntry:
    """The Fig. 6 row for one build-up."""

    name: str
    performance: float
    size_ratio: float
    cost_ratio: float
    figure_of_merit: float

    @property
    def size_reciprocal(self) -> float:
        """``1/size`` as printed in the Fig. 6 table."""
        return 1.0 / self.size_ratio

    @property
    def cost_reciprocal(self) -> float:
        """``1/cost`` as printed in the Fig. 6 table."""
        return 1.0 / self.cost_ratio


def weighted_power(base: float, exponent: float, axis: str) -> float:
    """One FoM factor, ``base ** exponent``, with Python's ``**`` bits.

    A result beyond the largest double (``**`` raises
    :class:`OverflowError`) is a weight no FoM can carry: it is refused
    as a :class:`SpecificationError` naming the ``axis`` weight.  Every
    finite result, underflow to 0 included, is the operator's own.
    """
    try:
        return base**exponent
    except OverflowError:
        raise SpecificationError(
            f"{axis} weight {exponent!r} overflows the figure of "
            f"merit (a base raised to it exceeds the largest double)"
        ) from None


def figure_of_merit(
    performance: float,
    size_ratio: float,
    cost_ratio: float,
    weights: FomWeights | None = None,
) -> float:
    """Compute the paper's figure of merit for one build-up.

    Parameters
    ----------
    performance:
        Performance score in ``[0, 1]`` (1 = fully meets spec).
    size_ratio:
        Area relative to the reference (Fig. 3 value / 100).
    cost_ratio:
        Final cost relative to the reference (Fig. 5 value / 100).
    weights:
        Optional exponents; defaults to the plain product.
    """
    if not performance >= 0:
        raise SpecificationError(
            f"performance cannot be negative or NaN, got {performance}"
        )
    if size_ratio <= 0 or cost_ratio <= 0:
        raise SpecificationError(
            "size and cost ratios must be positive, got "
            f"{size_ratio} and {cost_ratio}"
        )
    if weights is None:
        weights = FomWeights()
    return (
        weighted_power(performance, weights.performance, "performance")
        * weighted_power(1.0 / size_ratio, weights.size, "size")
        * weighted_power(1.0 / cost_ratio, weights.cost, "cost")
    )


def rank_buildups(entries: list[FomEntry]) -> list[FomEntry]:
    """Sort build-ups by descending figure of merit (best first)."""
    if not entries:
        raise SpecificationError("cannot rank an empty list")
    return sorted(entries, key=lambda e: e.figure_of_merit, reverse=True)
