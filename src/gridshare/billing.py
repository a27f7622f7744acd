"""The utility company's pricing function and daily household bills.

The unit price for an interval is quadratic in the gap between the
community's aggregated load and the utility's forecast generation, plus a
base price.  A household's daily bill sums its own load times the unit
price over the horizon.  Two algebraically equivalent forms are provided
(compact, and decomposed into base and quadratic terms); their agreement
is a tested invariant.  Currency is abstract cost units.
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


def unit_price(aggregated: float, generation: float, p0: float) -> float:
    """Price per kWh for one interval: squared tracking gap plus base price."""
    gap = aggregated - generation
    return gap * gap + p0


def daily_bill(loads_m, loads_others, tariff: TariffParams) -> float:
    """Daily bill in compact form: sum_t l_t * price(L_t).

    Summed with math.fsum (compensated), so the decomposed form agrees to
    full precision even at long horizons.
    """
    loads_m = np.asarray(loads_m, dtype=float)
    loads_others = np.asarray(loads_others, dtype=float)
    _check_lengths(loads_m, loads_others, tariff)
    terms = [
        loads_m[t]
        * unit_price(loads_m[t] + loads_others[t], tariff.generation[t], tariff.p0)
        for t in range(len(loads_m))
    ]
    return math.fsum(terms)


def community_bills(loads, tariff: TariffParams) -> list:
    """Every household's daily bill for a (M, T) load matrix.

    The shared unit price is computed once per interval from the
    fsum-aggregated load; each bill is then fsum_t(l_mt * price_t).  This
    equals daily_bill(l_m, fsum of the others) up to one rounding of the
    aggregate, and exactly for M <= 2.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.shape[1] != len(tariff.generation):
        raise LengthMismatchError(
            "series lengths differ: loads=%d generation=%d"
            % (loads.shape[1], len(tariff.generation))
        )
    aggregated = np.array([math.fsum(column) for column in loads.T.tolist()])
    with np.errstate(over="ignore"):  # an overflowed term is +inf
        gap = aggregated - tariff.generation
        terms = loads * (gap * gap + tariff.p0)
    return [math.fsum(row) for row in terms.tolist()]


def daily_bill_decomposed(loads_m, loads_others, tariff: TariffParams) -> float:
    """Daily bill split into a base-price term and a quadratic tracking term."""
    loads_m = np.asarray(loads_m, dtype=float)
    loads_others = np.asarray(loads_others, dtype=float)
    _check_lengths(loads_m, loads_others, tariff)
    base = [loads_m[t] * tariff.p0 for t in range(len(loads_m))]
    quad = [
        loads_m[t]
        * (loads_m[t] + loads_others[t] - tariff.generation[t]) ** 2
        for t in range(len(loads_m))
    ]
    return math.fsum(base + quad)


def _check_lengths(loads_m, loads_others, tariff):
    if not (len(loads_m) == len(loads_others) == len(tariff.generation)):
        raise LengthMismatchError(
            "series lengths differ: own=%d others=%d generation=%d"
            % (len(loads_m), len(loads_others), len(tariff.generation))
        )
