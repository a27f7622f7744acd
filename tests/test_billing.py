import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare import TariffParams, daily_bill, daily_bill_decomposed, unit_price
from gridshare.billing import aggregate, community_bills
from gridshare.errors import LengthMismatchError

from conftest import make_scenario

load_series = st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=96
)


class TestUnitPrice:
    def test_perfect_tracking_yields_base_price(self):
        assert unit_price(3.0, 3.0, 0.01) == 0.01

    def test_positive_gap(self):
        assert unit_price(4.0, 2.0, 1.0) == 5.0

    def test_square_is_symmetric(self):
        assert unit_price(0.0, 2.0, 1.0) == 5.0


class TestDailyBill:
    def test_no_consumption_no_bill(self):
        tariff = TariffParams(p0=0.01, generation=[1.0, 2.0, 3.0])
        assert daily_bill([0.0, 0.0, 0.0], [5.0, 5.0, 5.0], tariff) == 0.0

    def test_single_interval(self):
        tariff = TariffParams(p0=1.0, generation=[2.0])
        assert daily_bill([1.0], [1.0], tariff) == pytest.approx(1.0, abs=1e-12)

    def test_two_intervals(self):
        tariff = TariffParams(p0=1.0, generation=[0.0, 2.0])
        assert daily_bill([1.0, 1.0], [0.0, 0.0], tariff) == pytest.approx(
            4.0, abs=1e-12
        )

    def test_length_mismatch_rejected(self):
        tariff = TariffParams(p0=1.0, generation=[1.0, 2.0])
        with pytest.raises(LengthMismatchError):
            daily_bill([1.0], [1.0, 1.0], tariff)
        with pytest.raises(LengthMismatchError):
            daily_bill_decomposed([1.0, 1.0], [1.0], tariff)


class TestBillForms:
    @settings(max_examples=300)
    @given(
        own=load_series,
        seed=st.integers(min_value=0, max_value=2**31),
        p0=st.floats(min_value=1e-4, max_value=10.0),
    )
    def test_compact_and_decomposed_forms_agree(self, own, seed, p0):
        rng = np.random.default_rng(seed)
        horizon = len(own)
        others = rng.uniform(0.0, 30.0, size=horizon)
        g = rng.uniform(0.0, 30.0, size=horizon)
        tariff = TariffParams(p0=p0, generation=g)
        compact = daily_bill(own, others, tariff)
        decomposed = daily_bill_decomposed(own, others, tariff)
        scale = max(1.0, abs(compact))
        assert abs(compact - decomposed) <= 1e-9 * scale

    def test_agreement_at_long_horizon(self):
        # 96 intervals, adversarial magnitudes
        rng = np.random.default_rng(7)
        own = rng.uniform(0.0, 50.0, size=96)
        others = rng.uniform(0.0, 500.0, size=96)
        g = rng.uniform(0.0, 500.0, size=96)
        tariff = TariffParams(p0=0.01, generation=g)
        compact = daily_bill(own, others, tariff)
        decomposed = daily_bill_decomposed(own, others, tariff)
        assert abs(compact - decomposed) <= 1e-9 * max(1.0, abs(compact))

    @settings(max_examples=200)
    @given(own=load_series, seed=st.integers(min_value=0, max_value=2**31))
    def test_bill_never_below_base_cost(self, own, seed):
        rng = np.random.default_rng(seed)
        horizon = len(own)
        tariff = TariffParams(p0=0.5, generation=rng.uniform(0, 10, size=horizon))
        others = rng.uniform(0.0, 10.0, size=horizon)
        assert daily_bill(own, others, tariff) >= 0.5 * math.fsum(own) - 1e-12

    @given(own=load_series, p0=st.floats(min_value=1e-3, max_value=5.0))
    def test_linear_in_own_load_under_perfect_tracking(self, own, p0):
        # when the aggregate exactly tracks generation, only the base
        # price remains, so the bill is linear in own consumption
        own = np.asarray(own)
        others = np.full(len(own), 2.0)
        g = own + others
        tariff = TariffParams(p0=p0, generation=g)
        bill = daily_bill(own, others, tariff)
        assert bill == pytest.approx(p0 * math.fsum(own), rel=1e-12, abs=1e-12)
        assert daily_bill(2.0 * own, others, TariffParams(
            p0=p0, generation=2.0 * own + others
        )) == pytest.approx(2.0 * p0 * math.fsum(own), rel=1e-12, abs=1e-12)


class TestExternalityDirection:
    @given(
        aggregate=st.floats(min_value=0.0, max_value=20.0),
        g=st.floats(min_value=0.0, max_value=20.0),
        delta=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_price_derivative_sign_follows_tracking_gap(self, aggregate, g, delta):
        # above the generation curve extra load raises the price;
        # below it (by more than the increment) extra load lowers it
        p0 = 0.01
        before = unit_price(aggregate, g, p0)
        after = unit_price(aggregate + delta, g, p0)
        if aggregate >= g:
            assert after >= before
        elif aggregate + delta <= g:
            assert after <= before

    def test_tariff_validation(self):
        scenario = make_scenario([[1.0] * 3], [[0.0] * 3], [1.0] * 3)
        scenario.tariff = TariffParams(p0=-1.0, generation=[1.0, -2.0])
        problems = scenario.validate()
        assert len(problems) == 3
        assert all(p.startswith("tariff.") for p in problems), problems


class TestCommunityBills:
    @pytest.mark.parametrize("households", [1, 2, 7, 64])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_daily_bill_against_the_others(self, households, seed):
        rng = np.random.default_rng(seed)
        horizon = 24
        loads = rng.uniform(0.0, 3.0, size=(households, horizon))
        generation = rng.uniform(0.0, 3.0 * households, size=horizon)
        tariff = TariffParams(p0=0.01, generation=generation)
        bills = community_bills(loads, aggregate(loads), tariff)
        assert len(bills) == households
        for m in range(households):
            others = [
                math.fsum(loads[k, t] for k in range(households) if k != m)
                for t in range(horizon)
            ]
            want = daily_bill(loads[m], others, tariff)
            if households <= 2:
                assert bills[m] == want
            else:
                assert bills[m] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_length_mismatch_rejected(self):
        # loads longer than the generation; a 1-entry aggregate, which would
        # otherwise broadcast one price over the whole day
        for loads, aggregated, generation in [
            (np.ones((2, 3)), np.full(3, 2.0), [1.0, 2.0]),
            (np.ones((2, 4)), [1.0], np.ones(4)),
        ]:
            tariff = TariffParams(p0=1.0, generation=generation)
            with pytest.raises(LengthMismatchError):
                community_bills(loads, aggregated, tariff)


magnitudes = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-8, max_value=1e8),
    st.floats(min_value=-1e8, max_value=-1e-8),
)


class TestOnePriceFormula:
    # every bill prices through unit_price; these pin the vectorized forms to
    # the per-interval terms and the matrix expression they replaced, bit for bit
    @settings(max_examples=300)
    @given(
        horizon=st.integers(min_value=1, max_value=50),
        data=st.data(),
        p0=st.floats(min_value=1e-8, max_value=1e8),
    )
    def test_daily_bill_is_the_fsum_of_per_interval_terms(self, horizon, data, p0):
        own, others, g = (
            np.array(data.draw(st.lists(magnitudes, min_size=horizon, max_size=horizon)))
            for _ in range(3)
        )
        tariff = TariffParams(p0=p0, generation=g)
        want = math.fsum(
            [
                own[t] * unit_price(own[t] + others[t], tariff.generation[t], p0)
                for t in range(horizon)
            ]
        )
        assert daily_bill(own, others, tariff).hex() == want.hex()

    @settings(max_examples=200)
    @given(
        households=st.integers(min_value=1, max_value=8),
        horizon=st.integers(min_value=1, max_value=30),
        data=st.data(),
        p0=st.floats(min_value=1e-8, max_value=1e8),
    )
    def test_community_bills_match_the_matrix_expression(
        self, households, horizon, data, p0
    ):
        size = households * horizon
        cells = data.draw(st.lists(magnitudes, min_size=size, max_size=size))
        loads = np.array(cells).reshape(households, horizon)
        g = np.array(data.draw(st.lists(magnitudes, min_size=horizon, max_size=horizon)))
        tariff = TariffParams(p0=p0, generation=g)
        aggregated = np.array([math.fsum(column) for column in loads.T.tolist()])
        gap = aggregated - tariff.generation
        want = [math.fsum(row) for row in (loads * (gap * gap + p0)).tolist()]
        got = community_bills(loads, aggregate(loads), tariff)
        assert [b.hex() for b in got] == [b.hex() for b in want]
