"""The utility company's pricing function and daily household bills.

The unit price for an interval is quadratic in the gap between the
community's aggregated load and the utility's forecast generation, plus a
base price.  A household's daily bill sums its own load times the unit
price over the horizon.  Every bill prices through :func:`unit_price`,
the community's and the one the engine's best response judges a schedule
by (:func:`daily_bill`); a decomposed form checks the compact one.
Currency is abstract cost units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError


@dataclass
class TariffParams:
    """Base price and the utility's forecast generation curve."""

    p0: float
    generation: np.ndarray

    def __post_init__(self):
        # None stands for a field the scenario parser could not read and
        # listed; Scenario.validate skips it
        if self.generation is not None:
            self.generation = np.asarray(self.generation, dtype=float)


def unit_price(aggregated, generation, p0):
    """Price per kWh per interval: squared tracking gap plus base price."""
    gap = aggregated - generation
    return gap * gap + p0


def aggregate(loads) -> np.ndarray:
    """The community's load per interval of a (M, T) load matrix, fsum-ed."""
    return np.array([math.fsum(column) for column in np.asarray(loads).T.tolist()])


def daily_bill(loads_m, loads_others, tariff: TariffParams) -> float:
    """Daily bill in compact form: sum_t l_t * price(l_t + others_t).

    The one-household row of :func:`community_bills`, summed with
    math.fsum (compensated), so the decomposed form agrees to full
    precision even at long horizons.
    """
    loads_m = np.asarray(loads_m, dtype=float)
    loads_others = np.asarray(loads_others, dtype=float)
    _check_lengths(tariff, own=loads_m, others=loads_others)
    return community_bills(loads_m[None], loads_m + loads_others, tariff)[0]


def community_bills(loads, aggregated, tariff: TariffParams) -> list:
    """Every household's daily bill for a (M, T) load matrix.

    ``aggregated`` is its load per interval as :func:`aggregate` sums it,
    and sets the shared unit price; each bill is fsum_t(l_mt * price_t).
    This equals daily_bill(l_m, fsum of the others) up to one rounding of
    the aggregate, and exactly for M <= 2.
    """
    loads = np.asarray(loads, dtype=float)
    _check_lengths(tariff, loads=loads, aggregated=aggregated)
    price = unit_price(aggregated, tariff.generation, tariff.p0)
    return [math.fsum(row) for row in (loads * price).tolist()]


def daily_bill_decomposed(loads_m, loads_others, tariff: TariffParams) -> float:
    """Daily bill split into a base-price term and a quadratic tracking term."""
    loads_m = np.asarray(loads_m, dtype=float)
    loads_others = np.asarray(loads_others, dtype=float)
    _check_lengths(tariff, own=loads_m, others=loads_others)
    base = [loads_m[t] * tariff.p0 for t in range(len(loads_m))]
    quad = [
        loads_m[t]
        * (loads_m[t] + loads_others[t] - tariff.generation[t]) ** 2
        for t in range(len(loads_m))
    ]
    return math.fsum(base + quad)


def _check_lengths(tariff, **series):
    lengths = {name: np.shape(x)[-1] for name, x in series.items()}
    lengths["generation"] = len(tariff.generation)
    if len(set(lengths.values())) > 1:
        raise LengthMismatchError(
            "series lengths differ: " + " ".join("%s=%d" % kv for kv in lengths.items())
        )
