"""Unit tests for the single-filter physics primitives and the public API."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polcascade
from polcascade.core import (
    Angle,
    ClassicalBeam,
    FilterStack,
    PolarizationKet,
    ZeroProbabilityProjectionError,
    angle_from_degrees,
    classical_transmit,
    ket,
    malus_factor,
    pass_probability,
    project,
)

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def deg(d):
    return angle_from_degrees(d)


class TestAngle:
    def test_degree_conversion(self):
        assert deg(90).radians == pytest.approx(math.pi / 2, abs=1e-15)

    def test_axis_period_wraps_180(self):
        assert deg(180).radians == 0.0

    def test_reduces_modulo_180(self):
        # 225 mod 180 = 45
        assert deg(225).radians == pytest.approx(math.pi / 4, abs=1e-15)

    def test_negative_input_wraps(self):
        assert deg(-45).radians == pytest.approx(math.radians(135), abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Angle(bad)
        with pytest.raises(ValueError):
            angle_from_degrees(bad)

    @given(r=finite_angles)
    def test_canonical_range(self, r):
        a = Angle(r)
        assert 0.0 <= a.radians < math.pi

    @given(r=finite_angles)
    def test_canonicalization_idempotent(self, r):
        a = Angle(r)
        assert Angle(a.radians) == a

    def test_degrees_round_trip(self):
        assert deg(33.3).degrees == pytest.approx(33.3, abs=1e-12)


class TestClassicalBeam:
    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            ClassicalBeam.unpolarized(-1.0)

    def test_unpolarized_has_no_plane(self):
        assert ClassicalBeam.unpolarized(1.0).plane is None

    def test_linear_keeps_plane(self):
        b = ClassicalBeam.linear(deg(30), 2.0)
        assert b.plane == deg(30)


class TestFilterStack:
    def test_empty_stack_is_valid(self):
        assert len(FilterStack()) == 0

    def test_order_preserved(self):
        s = FilterStack.from_degrees([0, 45, 90])
        assert [a.degrees for a in s.axes] == pytest.approx([0, 45, 90])

    def test_first_non_finite_angle_named(self):
        with pytest.raises(ValueError, match="finite, got -inf$"):
            FilterStack([0.0, -math.inf, math.nan])

    @pytest.mark.parametrize(
        "text,name",
        [
            ("45", "str"),
            (b"45", "bytes"),
            (bytearray(b"45"), "bytearray"),
            ("", "str"),
            (b"", "bytes"),
            (["45"], "str"),  # FilterStack read it as 45 rad, 58.3 deg
            (["45", "90"], "str"),
            (np.array(["1", "2"]), "str"),  # from_degrees read it as 1 and 2 deg
            ([b"45"], "bytes"),
            ([True, False], "bool"),
            (np.array([True]), "bool"),
        ],
        ids=["str", "bytes", "bytearray", "empty-str", "empty-bytes", "str-list", "str-pair",
             "str-array", "bytes-list", "bool-list", "bool-array"],
    )
    def test_text_is_not_a_list_of_angles(self, text, name):
        # iterating "45" would give the stack 4 and 5 degrees, and b"45" 52
        # and 53; numpy would read "12" as 12 rad and True as 1
        with pytest.raises(ValueError, match=f"not {name}$"):
            FilterStack.from_degrees(text)
        with pytest.raises(ValueError, match=f"not {name}$"):
            FilterStack(text)

    def test_numbers_in_any_form_are_angles(self):
        expected = np.radians([0.0, 45.0, 90.0])
        for degrees in ([0, 45, 90], (0.0, 45.0, 90.0), (a for a in [0, 45.0, 90]),
                        range(0, 91, 45), np.array([0, 45, 90]), np.array([0.0, 45.0, 90.0]),
                        np.array([0.0, 45.0, 90.0], dtype=np.float32)):
            assert FilterStack.from_degrees(degrees).radians.tolist() == expected.tolist()
        assert FilterStack(x for x in expected).radians.tolist() == expected.tolist()

    @given(radians=st.lists(finite_angles | st.floats(-1e-300, 0.0), max_size=20))
    def test_axes_are_the_angles_of_each_value(self, radians):
        # axes skip the reduction Angle would make again; it changes nothing
        axes = FilterStack(radians).axes
        assert all(type(a) is Angle for a in axes)
        assert [a.radians for a in axes] == [Angle(r).radians for r in radians]
        assert all(math.copysign(1.0, a.radians) == 1.0 for a in axes)


class TestMalusFactor:
    def test_perpendicular_blocks(self):
        # cos^2(90 deg): zero up to the float rounding of pi/2
        assert malus_factor(deg(0), deg(90)) <= 1e-15

    def test_diagonal_halves(self):
        assert malus_factor(deg(0), deg(45)) == pytest.approx(0.5, abs=1e-12)

    @given(r=finite_angles)
    def test_aligned_transmits_fully(self, r):
        a = Angle(r)
        assert malus_factor(a, a) == 1.0

    @given(plane=finite_angles, axis=finite_angles)
    def test_range(self, plane, axis):
        f = malus_factor(Angle(plane), Angle(axis))
        assert 0.0 <= f <= 1.0

    @given(plane=finite_angles, axis=st.floats(min_value=-10, max_value=10))
    def test_axis_period(self, plane, axis):
        # adding pi before canonicalization perturbs the axis by at most
        # one rounding step, so the factor matches at float resolution
        t = Angle(plane)
        assert malus_factor(t, Angle(axis + math.pi)) == pytest.approx(
            malus_factor(t, Angle(axis)), abs=1e-13
        )

    def test_symmetric_in_relative_angle(self):
        assert malus_factor(deg(10), deg(70)) == pytest.approx(
            malus_factor(deg(70), deg(10)), abs=1e-15
        )


class TestClassicalTransmit:
    def test_unpolarized_halves(self):
        out = classical_transmit(ClassicalBeam.unpolarized(1.0), deg(0))
        assert out.intensity == 0.5
        assert out.plane == deg(0)

    def test_perpendicular_extinguishes(self):
        beam = ClassicalBeam.linear(deg(0), 0.5)
        out = classical_transmit(beam, deg(90))
        assert out.intensity <= 1e-15
        assert out.plane == deg(90)

    def test_diagonal_quarters(self):
        beam = ClassicalBeam.linear(deg(0), 0.5)
        out = classical_transmit(beam, deg(45))
        assert out.intensity == pytest.approx(0.25, abs=1e-12)
        assert out.plane == deg(45)

    @given(
        plane=finite_angles,
        axis=finite_angles,
        intensity=st.floats(min_value=0, max_value=1e12),
    )
    def test_never_gains_intensity(self, plane, axis, intensity):
        beam = ClassicalBeam.linear(Angle(plane), intensity)
        out = classical_transmit(beam, Angle(axis))
        assert out.intensity <= beam.intensity

    @given(intensity=st.floats(min_value=0, max_value=1e12), axis=finite_angles)
    def test_unpolarized_never_gains(self, intensity, axis):
        beam = ClassicalBeam.unpolarized(intensity)
        out = classical_transmit(beam, Angle(axis))
        assert out.intensity <= beam.intensity


class TestKet:
    def test_horizontal(self):
        k = ket(deg(0))
        assert (k.amp_h, k.amp_v) == (1.0, 0.0)

    def test_vertical(self):
        k = ket(deg(90))
        assert k.amp_h == pytest.approx(0.0, abs=1e-15)
        assert k.amp_v == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_superposition(self):
        k = ket(deg(45))
        assert k.amp_h == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert k.amp_v == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    @given(r=finite_angles)
    def test_normalized_by_construction(self, r):
        k = ket(Angle(r))
        assert abs(k.amp_h**2 + k.amp_v**2 - 1.0) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PolarizationKet(1.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PolarizationKet(math.nan, 0.0)


class TestPassProbability:
    def test_perpendicular_blocks(self):
        assert pass_probability(ket(deg(0)), deg(90)) <= 1e-15

    def test_h_through_diagonal(self):
        got = pass_probability(ket(deg(0)), deg(45))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_through_vertical(self):
        got = pass_probability(ket(deg(45)), deg(90))
        assert got == pytest.approx(0.5, abs=1e-12)

    @given(state=finite_angles, axis=finite_angles)
    def test_global_sign_invariance(self, state, axis):
        s = ket(Angle(state))
        a = Angle(axis)
        flipped = PolarizationKet(-s.amp_h, -s.amp_v)
        assert pass_probability(s, a) == pass_probability(flipped, a)

    @given(state=finite_angles, axis=finite_angles)
    def test_range(self, state, axis):
        got = pass_probability(ket(Angle(state)), Angle(axis))
        assert 0.0 <= got <= 1.0

    def test_matches_malus_factor_on_1000_random_pairs(self):
        # the Born rule and Malus's law describe the same cos^2 throughput
        rng = np.random.default_rng(20240817)
        worst = 0.0
        for _ in range(1000):
            plane, axis = rng.uniform(0.0, math.pi, size=2)
            m = malus_factor(Angle(plane), Angle(axis))
            q = pass_probability(ket(Angle(plane)), Angle(axis))
            worst = max(worst, abs(m - q))
        assert worst <= 1e-12


class TestProject:
    def test_h_collapses_to_diagonal(self):
        assert project(ket(deg(0)), deg(45)) == ket(deg(45))

    def test_diagonal_collapses_to_vertical(self):
        assert project(ket(deg(45)), deg(90)) == ket(deg(90))

    def test_orthogonal_projection_rejected(self):
        with pytest.raises(ZeroProbabilityProjectionError):
            project(ket(deg(0)), deg(90))

    @given(state=finite_angles, axis=finite_angles)
    def test_idempotent_when_defined(self, state, axis):
        s = ket(Angle(state))
        a = Angle(axis)
        try:
            collapsed = project(s, a)
        except ZeroProbabilityProjectionError:
            return
        assert pass_probability(collapsed, a) == pytest.approx(1.0, abs=1e-12)


class TestPublicApi:
    def test_all_is_pinned(self):
        # growing the public API should be a deliberate edit here
        assert sorted(polcascade.__all__) == [
            "Angle",
            "CascadeTrace",
            "ClassicalBeam",
            "ComparisonDomainError",
            "ComparisonReport",
            "FilterStack",
            "MonteCarloConfig",
            "MonteCarloReport",
            "PhotonInput",
            "PolarizationKet",
            "StageRecord",
            "ZeroProbabilityProjectionError",
            "angle_from_degrees",
            "classical_transmit",
            "compare",
            "ket",
            "malus_factor",
            "pass_probability",
            "project",
            "run_classical",
            "run_monte_carlo",
            "run_quantum_exact",
            "staircase_transmission",
            "wilson_interval_95",
        ]
        for name in polcascade.__all__:
            getattr(polcascade, name)
