"""Figure-of-merit inputs and outputs (paper §4.4, Fig. 6).

The paper folds the three assessment axes into one number::

    FoM = performance * (1 / size) * (1 / cost)

where size and cost are normalised to the reference build-up, "the less
area and the less cost, the better, therefore the reciprocal values are
used".  For more complicated cases the paper mentions weighting factors;
:class:`FomWeights` provides them as exponents, so the unweighted product
is the all-ones case and a weight of zero removes an axis entirely.

The FoM itself is computed over columns by
:func:`repro.core.ranking.weighted_fom`, each factor through
:func:`weighted_power`; :class:`FomEntry` is one build-up's Fig. 6 row
of a study.  The scalar formula it replaced is the test reference in
``tests/study_reference.py``.
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
