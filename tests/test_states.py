"""Squeezed-state algebra: frozen examples plus algebraic invariants.

Expected numbers were computed independently from the closed forms
(10**(+-db/10), eta*v + 1 - eta, cos^2/sin^2 mixing) and frozen here.
"""

import math

import numpy as np
import pytest

from sqznb import (
    LossChain,
    PhaseNoise,
    SqueezedState,
    VACUUM,
    apply_loss,
    apply_phase_noise,
    detected_db,
    propagate,
    state_from_db,
)
from sqznb.states import (
    _QUOTE_LIMIT, HEISENBERG_RTOL, MAX_INJECT_DB, _detected_db_into, _quote,
)


class TestSqueezedState:
    def test_vacuum_is_legal_tie(self):
        state = SqueezedState(1.0, 1.0)
        assert state.uncertainty_product == 1.0
        assert detected_db(state) == 0.0

    def test_rejects_swapped_labels(self):
        with pytest.raises(ValueError, match="swapped"):
            SqueezedState(0.5, 2.0)

    def test_rejects_sub_heisenberg_product(self):
        with pytest.raises(ValueError, match="Heisenberg"):
            SqueezedState(1.0, 0.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, True])
    def test_rejects_nonpositive_variance(self, bad):
        with pytest.raises(ValueError):
            SqueezedState(2.0, bad)

    def test_rejects_booleans(self):
        # bool is an int subclass; a flag is not a variance
        with pytest.raises(ValueError, match="v_plus"):
            SqueezedState(True, True)

    def test_pure_state_on_the_bound_is_accepted(self):
        state = SqueezedState(10.0, 0.1)
        assert state.uncertainty_product == pytest.approx(1.0, rel=1e-12)

    def test_product_at_the_tolerance_is_accepted(self):
        # the bound is 1 - HEISENBERG_RTOL inclusive: the next float below it is refused
        SqueezedState(1.0, 1.0 - HEISENBERG_RTOL)
        with pytest.raises(ValueError, match="Heisenberg"):
            SqueezedState(1.0, math.nextafter(1.0 - HEISENBERG_RTOL, 0.0))


class TestQuote:
    def test_a_repr_of_the_limit_is_whole(self):
        text = "x" * (_QUOTE_LIMIT - 2)  # its repr adds the two quotes
        assert _quote(text) == repr(text)
        assert _quote(text + "x") == f"{repr(text + 'x')[:_QUOTE_LIMIT]}...[{_QUOTE_LIMIT + 1} characters]"


class TestPhaseNoise:
    def test_zero_is_legal(self):
        assert PhaseNoise(0.0).theta_rms == 0.0

    @pytest.mark.parametrize("bad", [-0.001, math.pi / 4, 1.0, math.nan, False])
    def test_rejects_out_of_regime(self, bad):
        with pytest.raises(ValueError):
            PhaseNoise(bad)


class TestLossChain:
    def test_empty_chain_is_lossless(self):
        assert LossChain().total == 1.0

    def test_component_product(self):
        chain = LossChain((("mode_mismatch", 0.75), ("omc", 0.82), ("faraday", 0.80)))
        assert chain.total == pytest.approx(0.492, abs=1e-12)

    def test_unit_element_is_neutral(self):
        assert LossChain((("a", 1.0), ("b", 0.44))).total == pytest.approx(0.44, rel=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.2, math.nan, True])
    def test_rejects_out_of_range_efficiency(self, bad):
        with pytest.raises(ValueError, match="'x'"):
            LossChain((("x", bad),))

    @pytest.mark.parametrize(
        "elements, message",
        [
            ("ab", "a loss element must be a (label, efficiency) pair, got 'a'"),
            (5, "elements must be (label, efficiency) pairs, got 5"),
            ((("a", 0.5), ("b",)), "a loss element must be a (label, efficiency) pair, got ('b',)"),
            ((("a", 0.5), 0.9), "a loss element must be a (label, efficiency) pair, got 0.9"),
            ((("a", 0.5, "c"),), "a loss element must be a (label, efficiency) pair, got ('a', 0.5, 'c')"),
        ],
    )
    def test_malformed_element_is_named(self, elements, message):
        with pytest.raises(ValueError) as info:
            LossChain(elements)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_zero_element_is_allowed(self):
        # the same [0, 1] rule as a bare efficiency: a blocking element gives vacuum
        chain = LossChain((("a", 0.9), ("blocked", 0.0)))
        assert chain.total == 0.0
        assert propagate(10.3, chain, 0.037).detected_db == 0.0
        assert propagate(10.3, chain, 0.037) == propagate(10.3, 0.0, 0.037)

    def test_from_total(self):
        chain = LossChain.from_total(0.44)
        assert chain.total == 0.44
        assert chain.elements == (("total", 0.44),)


class TestStateFromDb:
    def test_zero_db_is_vacuum(self):
        state = state_from_db(0.0)
        assert (state.v_plus, state.v_minus) == (1.0, 1.0)

    def test_frozen_example_10p3_db(self):
        state = state_from_db(10.3)
        assert state.v_minus == pytest.approx(0.0933254300796991, rel=1e-12)
        assert state.v_plus == pytest.approx(10.715193052376065, rel=1e-12)

    def test_frozen_example_20_db(self):
        state = state_from_db(20.0)
        assert state.v_minus == pytest.approx(0.01, rel=1e-12)
        assert state.v_plus == pytest.approx(100.0, rel=1e-12)

    def test_purity(self):
        for db in (0.0, 3.0, 10.3, 20.0, 45.0):
            state = state_from_db(db)
            assert state.uncertainty_product == pytest.approx(1.0, rel=1e-12)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            state_from_db(-0.1)
        # bool is an int subclass; a flag is not a level
        with pytest.raises(ValueError, match="squeeze_db"):
            state_from_db(True)
        with pytest.raises(ValueError, match="must be a number"):
            propagate(True, True, False)
        with pytest.raises(ValueError, match="efficiency"):
            propagate(10.3, True)
        with pytest.raises(ValueError, match="theta_rms"):
            propagate(10.3, 0.44, False)

    def test_injection_ceiling(self):
        # 10**(s/10) overflows a float near 3082.5 dB; the ceiling keeps every level finite
        top = state_from_db(MAX_INJECT_DB)
        assert math.isfinite(top.v_plus) and top.v_minus > 0.0
        assert math.isfinite(propagate(MAX_INJECT_DB, 0.44, 0.037).detected_db)
        for level in (math.nextafter(MAX_INJECT_DB, math.inf), 4000.0, math.inf):
            with pytest.raises(ValueError, match=r"squeeze_db must be in \[0, 3000\] dB"):
                state_from_db(level)


class TestApplyLoss:
    def test_frozen_example(self):
        state = apply_loss(state_from_db(10.3), 0.44)
        assert state.v_plus == pytest.approx(5.274684943045468, rel=1e-12)
        assert state.v_minus == pytest.approx(0.6010631892350676, rel=1e-12)

    def test_unit_efficiency_is_identity(self):
        state = state_from_db(7.7)
        assert apply_loss(state, 1.0) == state

    def test_zero_efficiency_gives_vacuum(self):
        state = apply_loss(state_from_db(20.0), 0.0)
        assert (state.v_plus, state.v_minus) == (1.0, 1.0)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, True])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            apply_loss(VACUUM, bad)

    def test_composition_identity(self):
        # applying eta1 then eta2 equals applying eta1*eta2 directly
        rng = np.random.default_rng(7)
        for _ in range(300):
            db = rng.uniform(0.0, 30.0)
            e1, e2 = rng.uniform(0.0, 1.0, size=2)
            state = state_from_db(db)
            two_step = apply_loss(apply_loss(state, e1), e2)
            one_step = apply_loss(state, e1 * e2)
            assert two_step.v_plus == pytest.approx(one_step.v_plus, rel=1e-12)
            assert two_step.v_minus == pytest.approx(one_step.v_minus, rel=1e-12)

    def test_keeps_state_physical(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            state = apply_loss(state_from_db(rng.uniform(0, 40)), rng.uniform(0, 1))
            assert state.uncertainty_product >= 1.0 - 1e-12


class TestApplyPhaseNoise:
    @pytest.mark.parametrize("noise", [PhaseNoise(0.0), 0.0, None])
    def test_zero_jitter_is_identity(self, noise):
        state = state_from_db(13.0)
        assert apply_phase_noise(state, noise) == state

    def test_frozen_example_37_mrad(self):
        lossy = SqueezedState(5.274684943045468, 0.6010631892350676)
        state = apply_phase_noise(lossy, PhaseNoise(0.037))
        assert state.v_minus == pytest.approx(0.6074584582423858, rel=1e-12)
        assert state.v_plus == pytest.approx(5.26828967403815, rel=1e-12)

    def test_frozen_example_pure_20db_35_mrad(self):
        state = apply_phase_noise(state_from_db(20.0), PhaseNoise(0.035))
        assert state.v_minus == pytest.approx(0.1324377423372877, rel=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            state = apply_loss(state_from_db(rng.uniform(0, 30)), rng.uniform(0.1, 1))
            mixed = apply_phase_noise(state, PhaseNoise(rng.uniform(0, 0.7)))
            before = state.v_plus + state.v_minus
            after = mixed.v_plus + mixed.v_minus
            assert after == pytest.approx(before, rel=1e-12)

    def test_mixing_direction(self):
        state = state_from_db(15.0)
        mixed = apply_phase_noise(state, PhaseNoise(0.05))
        assert mixed.v_minus > state.v_minus
        assert mixed.v_plus < state.v_plus

    def test_keeps_state_physical(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            state = apply_loss(state_from_db(rng.uniform(0, 30)), rng.uniform(0, 1))
            mixed = apply_phase_noise(state, PhaseNoise(rng.uniform(0, 0.7)))
            assert mixed.uncertainty_product >= 1.0 - 1e-12

    def test_vacuum_is_fixed_point(self):
        assert apply_phase_noise(VACUUM, PhaseNoise(0.1)) == VACUUM


class TestDetectedDb:
    def test_vacuum_reads_zero(self):
        # a plain 0.0, not the -0.0 of -10 * log10(1), for a scalar and the array kernel
        assert detected_db(VACUUM) == 0.0 and math.copysign(1.0, detected_db(VACUUM)) == 1.0
        out = np.empty(3)
        _detected_db_into(np.zeros(3), np.full(3, 0.5), np.zeros(3), out=out)
        assert not np.signbit(out).any()

    def test_frozen_examples(self):
        assert detected_db(SqueezedState(5.274684943045468, 0.6010631892350676)) == pytest.approx(
            2.2107986860701114, rel=1e-12
        )
        assert detected_db(SqueezedState(10.0, 0.1324377423372877)) == pytest.approx(
            8.77988231263484, rel=1e-12
        )

    def test_noisier_than_vacuum_is_negative(self):
        assert detected_db(SqueezedState(4.0, 2.0)) < 0.0


class TestPropagate:
    def test_matches_composed_operations(self):
        chain = LossChain((("a", 0.9), ("b", 0.7)))
        noise = PhaseNoise(0.02)
        result = propagate(8.0, chain, noise)
        manual = apply_phase_noise(apply_loss(state_from_db(8.0), chain.total), noise)
        assert result.state == manual
        assert result.detected_db == detected_db(manual)

    def test_h1_chain_with_phase_noise(self):
        result = propagate(10.3, 0.44, PhaseNoise(0.037))
        assert result.detected_db == pytest.approx(2.1648341645059834, rel=1e-12)
        assert 2.01 <= result.detected_db <= 2.27

    @pytest.mark.parametrize("noise", [PhaseNoise(0.0), 0.0, None])
    def test_h1_chain_loss_only(self, noise):
        result = propagate(10.3, 0.44, noise)
        assert result.detected_db == pytest.approx(2.2107986860701114, rel=1e-12)

    def test_high_purity_state_with_jitter(self):
        result = propagate(20.0, 1.0, PhaseNoise(0.035))
        assert result.detected_db == pytest.approx(8.77988231263484, rel=1e-12)
        assert result.detected_db < 9.0

    def test_chain_and_scalar_efficiency_agree(self):
        chain = LossChain((("a", 0.8), ("b", 0.55)))
        a = propagate(12.0, chain, 0.01)
        b = propagate(12.0, chain.total, 0.01)
        assert a.state == b.state

    def test_vacuum_in_vacuum_out(self):
        result = propagate(0.0, 0.5, PhaseNoise(0.01))
        assert result.detected_db == 0.0

    def test_round_trip_through_lossless_chain(self):
        for db in (0.0, 1.5, 6.0, 10.3, 20.0):
            result = propagate(db, 1.0, PhaseNoise(0.0))
            assert result.detected_db == pytest.approx(db, abs=1e-10)

    def test_detected_never_exceeds_injected(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            db = rng.uniform(0, 30)
            result = propagate(db, rng.uniform(0, 1), PhaseNoise(rng.uniform(0, 0.7)))
            assert result.detected_db <= db + 1e-12

    def test_monotonic_in_efficiency_when_squeezing_survives(self):
        # in the regime where the detected level stays below vacuum, more
        # efficiency always means more observed squeezing
        noise = PhaseNoise(0.037)
        levels = [propagate(10.3, eta, noise).detected_db for eta in np.linspace(0.0, 1.0, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(levels, levels[1:]))

    def test_monotonic_in_phase_noise(self):
        levels = [
            propagate(10.3, 0.44, PhaseNoise(theta)).detected_db
            for theta in np.linspace(0.0, 0.5, 21)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))


class TestForwardKernel:
    def test_arrays_match_the_scalar_chain(self):
        rng = np.random.default_rng(14)
        inject, eta, theta = rng.uniform(0, 30, 300), rng.uniform(0, 1, 300), rng.uniform(0, 0.7, 300)
        detected = np.empty(300)
        _detected_db_into(inject.copy(), eta.copy(), theta.copy(), out=detected)
        expected = [
            propagate(float(s), float(e), float(t)).detected_db
            for s, e, t in zip(inject, eta, theta)
        ]
        # numpy's log10 and sin may differ from libm's in the last bit
        np.testing.assert_allclose(detected, expected, rtol=1e-12, atol=1e-12)
