"""Unit tests for the single-filter physics primitives and the public API."""

import copy
import math
import pickle
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polcascade
from polcascade import core
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
            # numpy reads these as numbers, so each element's type is checked
            ([True, 90.0], "bool"),  # from_degrees read it as 1 and 90 deg
            ((90.0, np.True_), "bool"),
            (np.array(["45", 90], dtype=object), "str"),  # read as 45 and 90 deg
            (np.array([0.0, True], dtype=object), "bool"),
            # nested lists are checked to their innermost elements
            ([[True, 90.0]], "bool"),  # from_degrees read it as 1 and 90 deg
            (((90.0,), (np.True_,)), "bool"),
            # numpy reads None as nan, which was reported as a nan angle
            ([1.0, None], "None"),
            ([[1.0, None]], "None"),
            (None, "None"),
            # numpy read these as numbers: complex values cut to their real
            # part with only a warning, Decimal and a 0-d array with float(),
            # a date as its days since 1970 and a time span as its count, and
            # a memoryview as its byte codes
            ([1.0, 2 + 1j], "complex"),
            (np.array([1.0 + 0j]), "complex128"),
            ([Decimal("45"), 90.0], "Decimal"),
            ([np.array(45.0), 90.0], "ndarray"),
            (np.array(["2020-01-01"], dtype="datetime64[D]"), "datetime64"),
            (np.array([5], dtype="timedelta64[s]"), "timedelta64"),
            ([np.datetime64("2020-01-01"), 1.0], "datetime64"),
            ([1.0, np.timedelta64(5, "ns")], "timedelta64"),
            (memoryview(b"45"), "memoryview"),
            # a bare number, or a 0-d array, was read as a one-filter stack
            (45.0, "float"),
            (45, "int"),
            (Fraction(45), "Fraction"),
            (np.float64(45.0), "float64"),
            (np.array(45.0), "ndarray"),
            (np.array(45), "ndarray"),
            (np.array(45.0, dtype=object), "ndarray"),
        ],
        ids=["str", "bytes", "bytearray", "empty-str", "empty-bytes", "str-list", "str-pair",
             "str-array", "bytes-list", "bool-list", "bool-array", "bool-among-floats",
             "numpy-bool-in-tuple", "str-in-object-array", "bool-in-object-array",
             "bool-in-nested-list", "numpy-bool-in-nested-tuple",
             "none-among-floats", "none-in-nested-list", "none",
             "complex-in-list", "complex-array", "decimal-in-list", "0-d-array-in-list",
             "datetime64-array", "timedelta64-array", "datetime64-in-list",
             "timedelta64-in-list", "memoryview", "float", "int", "fraction",
             "numpy-float", "0-d-array", "0-d-int-array", "0-d-object-array"],
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
                        np.array([0.0, 45.0, 90.0], dtype=np.float32),
                        np.array([0.0, 45.0, 90.0], dtype=np.float16),
                        np.array([0.0, 45.0, 90.0], dtype=np.longdouble),
                        np.array([0, 45, 90], dtype=np.uint8),
                        [Fraction(0), Fraction(90, 2), 90],
                        np.array([0, 45, 90], dtype=object),
                        [np.int64(0), np.int64(45), np.int64(90)]):
            assert FilterStack.from_degrees(degrees).radians.tolist() == expected.tolist()
        assert FilterStack(x for x in expected).radians.tolist() == expected.tolist()
        # a list of one number is a one-filter stack
        for degrees in ([45.0], (45,), np.array([45.0]), [[45.0]]):
            assert FilterStack.from_degrees(degrees).radians.tolist() == [math.radians(45.0)]

    def test_compares_and_hashes_by_value(self):
        stack = FilterStack.from_degrees([0, 45, 90])
        same = FilterStack.from_degrees([180, 45, 90])
        assert stack is not same and stack == same and hash(stack) == hash(same)
        assert stack != FilterStack.from_degrees([0, 45])
        # any other type is unequal, as a plain bool; an array once answered
        # element by element
        assert (stack == stack.radians) is False
        assert (stack != stack.radians) is True

    def test_compares_and_hashes_in_place(self):
        # the radians are read where they are: two equal, distinct stacks
        # once compared by copying both columns to bytes (16 bytes a filter)
        # and hashed by copying one; now the compare's work space is one
        # byte a filter and the hash's is nothing
        n = 100_000
        degrees = np.cumsum(np.random.default_rng(1).normal(0.0, 3.0, n))
        a, b = FilterStack.from_degrees(degrees), FilterStack.from_degrees(degrees)
        c = FilterStack.from_degrees(np.append(degrees[:-1], degrees[-1] + 1.0))
        for check, bound in [(lambda: a == b and a != c, 2 * n),
                             (lambda: hash(a) == hash(b), 4096)]:
            tracemalloc.start()
            try:
                assert check()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (peak, bound)

    def test_copies_are_read_only(self):
        # a trace folds every block of its columns past the first from the
        # stack's radians when read, so no copy of a stack may be written
        stack = FilterStack.from_degrees([0.0, 45.0, 90.0])
        for copied in (copy.copy(stack), copy.deepcopy(stack), pickle.loads(pickle.dumps(stack))):
            assert copied == stack and hash(copied) == hash(stack)
            assert not copied.radians.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                copied.radians[0] = 1.0
            assert copied == stack

    @pytest.mark.parametrize("start", [0.0, -180.0], ids=["positive", "negative"])
    def test_from_degrees_reduces_the_radians_it_makes_in_place(self, start):
        # the one array it adds is the radians, 8 bytes a filter: no second
        # reduced array and no mask as long as the stack. A negative angle
        # can land on the divisor, which a second reduction takes to 0.
        n = 100_000
        degrees = start + np.cumsum(np.abs(np.random.default_rng(2).normal(0.0, 0.01, n)))
        degrees[n // 2] = -1e-300  # reduced to pi - 1e-300, which rounds to pi
        tracemalloc.start()
        try:
            stack = FilterStack.from_degrees(degrees)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 4096, peak
        # the values of one reduction into a new array, with pi taken to 0
        reduced = np.mod(np.radians(degrees), np.pi)
        assert reduced[n // 2] == np.pi
        reduced[reduced >= np.pi] = 0.0
        assert stack.radians.tobytes() == reduced.tobytes()

    def test_owned_degrees_become_the_radians_in_place(self):
        # degrees no one else holds are made into the radians in their own
        # memory, bit for bit the radians from_degrees makes of a copy: at
        # every scale, either sign, on the divisor and just below 0
        rng = np.random.default_rng(4)
        degrees = np.concatenate([
            rng.normal(0.0, 1e3, 4000), rng.uniform(-1.0, 1.0, 1000) * 1.7e308,
            np.ldexp(rng.uniform(-1.0, 1.0, 1000), rng.integers(-1074, 1024, 1000)),
            [-1e-300, -0.0, 0.0, 180.0, -180.0, 540.0, 5e-324, -5e-324],
        ])
        owned = degrees.copy()
        owned.flags.writeable = False  # as a spec holds them
        stack = FilterStack.from_degrees(core._Owned([owned]))
        assert stack.radians is owned and not owned.flags.writeable
        assert stack.radians.tobytes() == FilterStack.from_degrees(degrees).radians.tobytes()

    def test_owned_degrees_are_checked_finite(self):
        with pytest.raises(ValueError, match="^filter angle must be finite, got nan$"):
            FilterStack.from_degrees(core._Owned([np.array([0.0, np.nan])]))

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
