"""Sampled-function container: sampling, norms, restriction, derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from trichotomy.grid import _CSV_BLOCK_ROWS, GridFunction, component_norm, write_csv


def sine_pair(a=-3.0, b=3.0, step=0.01):
    return GridFunction.from_callable(
        lambda t: np.stack([np.sin(t), np.cos(t)], axis=-1), a, b, step
    )


class TestConstruction:
    def test_sample_count_covers_step(self):
        gf = GridFunction.from_callable(np.sin, 0.0, 1.0, 0.3)
        assert gf.values.shape[0] == 5  # ceil(1/0.3) = 4 panels
        assert gf.h <= 0.3 + 1e-12

    def test_exact_step_division(self):
        gf = GridFunction.from_callable(np.sin, -1.0, 1.0, 0.02)
        assert gf.values.shape[0] == 101
        assert gf.h == pytest.approx(0.02)

    def test_scalar_input_promoted_to_column(self):
        gf = GridFunction(0.0, 1.0, [0.0, 1.0, 2.0])
        assert gf.dim == 1
        assert gf.values.shape == (3, 1)

    @pytest.mark.parametrize("fn, shape", [
        (lambda t: [t, 2 * t], "(2, 3)"),  # components first: not vectorized over t
        (lambda t: 1.0, "()"),
        (lambda t: t[1:], "(2,)"),
        (lambda t: np.zeros((3, 2, 2)), "(3, 2, 2)"),
    ], ids=["components-first", "scalar", "short", "three-axes"])
    def test_wrong_shaped_result_is_refused(self, fn, shape):
        with pytest.raises(ValueError) as err:
            GridFunction.from_callable(fn, 0.0, 1.0, 0.5)
        assert str(err.value) == f"sampled values have shape {shape}, expected (3,) or (3, n)"

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, 1.0, [0.0, np.inf, 1.0])

    def test_rejects_reversed_window(self):
        with pytest.raises(ValueError):
            GridFunction(1.0, 0.0, [0.0, 1.0])


class TestNormAndEval:
    def test_sup_norm_is_max_euclidean_sample(self):
        gf = sine_pair()
        assert gf.sup_norm == pytest.approx(1.0, abs=1e-12)

    def test_interpolation_accuracy(self):
        gf = sine_pair(step=0.01)
        t = np.linspace(-2.9, 2.9, 57) + 0.0013
        exact = np.stack([np.sin(t), np.cos(t)], axis=-1)
        assert np.max(np.abs(gf(t) - exact)) < 1e-8

    def test_out_of_window_evaluation_rejected(self):
        gf = sine_pair()
        with pytest.raises(ValueError):
            gf(3.5)


class TestSplineOracle:
    """The grid's own not-a-knot spline against scipy's CubicSpline."""

    @staticmethod
    def rel_err(got, ref):
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    @pytest.mark.parametrize("points", [2, 3, 4, 5, 6, 2601])
    @pytest.mark.parametrize("n", [1, 3])
    def test_random_samples_on_exact_grid(self, points, n):
        # a dyadic step makes the grid times exact, so scipy's per-interval
        # steps are all equal to h and both splines solve the same system
        rng = np.random.default_rng(points * 10 + n)
        h = 2.0**-6
        a = -h * (points // 2)
        gf = GridFunction(a, a + (points - 1) * h, 1e4 * rng.normal(size=(points, n)))
        ref = CubicSpline(gf.times, gf.values, axis=0)
        t = np.concatenate([rng.uniform(gf.a, gf.b, 2000), gf.times])
        for nu in (0, 1):
            assert gf(t, nu).shape == (t.size, n)
            assert self.rel_err(gf(t, nu), ref(t, nu)) <= 1e-12
            scalar = gf(float(t[0]), nu)
            assert scalar.shape == (n,)
            assert self.rel_err(scalar, ref(t[0], nu)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3])
    def test_smooth_samples_on_rounded_grid(self, n):
        # 2,601 samples of an amplitude-1e4 function on [-13, 13]
        gf = GridFunction.from_callable(
            lambda t: 1e4 * np.stack([np.sin(3 * t), t * np.cos(t), np.exp(-t * t)][:n], -1),
            -13.0, 13.0, 0.01,
        )
        assert gf.values.shape[0] == 2601
        ref = CubicSpline(gf.times, gf.values, axis=0)
        t = np.random.default_rng(n).uniform(-13.0, 13.0, 20000)
        for nu in (0, 1):
            assert self.rel_err(gf(t, nu), ref(t, nu)) <= 1e-12

    def test_two_points_give_the_line(self):
        gf = GridFunction(1.0, 3.0, [[2.0, -1.0], [6.0, 3.0]])
        t = np.linspace(1.0, 3.0, 9)
        line = np.stack([2.0 * t, 2.0 * t - 3.0], axis=-1)
        assert np.max(np.abs(gf(t) - line)) <= 1e-14
        assert np.max(np.abs(gf(t, 1) - 2.0)) <= 1e-14

    def test_three_points_give_the_parabola(self):
        gf = GridFunction(-1.0, 1.0, [[3.0], [1.0], [7.0]])  # 1 + 2t + 4t^2 at -1, 0, 1
        t = np.linspace(-1.0, 1.0, 17)
        parabola = 1.0 + 2.0 * t + 4.0 * t**2
        assert np.max(np.abs(gf(t)[:, 0] - parabola)) <= 1e-14
        assert np.max(np.abs(gf(t, 1)[:, 0] - (2.0 + 8.0 * t))) <= 1e-13

    def test_short_grid_derivative_uses_the_spline(self):
        # m < 5 samples: derivative_grid returns the spline's slopes
        gf = GridFunction(0.0, 1.5, [[0.0], [1.0], [0.5], [2.0]])
        ref = CubicSpline(gf.times, gf.values, axis=0)
        assert self.rel_err(gf.derivative_grid(), ref(gf.times, 1)) <= 1e-12


class TestKnotRule:
    """Values at grid points are the samples themselves, read by index."""

    @staticmethod
    def grids(n):
        h = 2.0**-6
        dyadic = GridFunction(-h * 1300, h * 1300,
                              1e4 * np.random.default_rng(n).normal(size=(2601, n)))
        rounded = GridFunction.from_callable(
            lambda t: 1e4 * np.stack([np.sin(3 * t), t * np.cos(t), np.exp(-t * t)][:n], -1),
            -13.0, 13.0, 0.01,
        )
        return dyadic, rounded

    @pytest.mark.parametrize("n", [1, 3])
    def test_grid_points_return_the_samples(self, n):
        for gf in self.grids(n):
            assert np.array_equal(gf(gf.times), gf.values)
            assert np.array_equal(gf(gf.times[-1]), gf.values[-1])  # scalar, last sample
            near = gf.times[:-1] + 0.5e-9 * gf.h  # inside the 1e-9-step tolerance
            assert np.array_equal(gf(near), gf.values[:-1])

    @pytest.mark.parametrize("n", [1, 3])
    def test_points_off_the_grid_take_the_spline(self, n):
        for gf in self.grids(n):
            t = gf.times[:-1] + 1e-6 * gf.h
            ref = CubicSpline(gf.times, gf.values, axis=0)(t)
            assert TestSplineOracle.rel_err(gf(t), ref) <= 1e-12
            # mixed with grid points, each point keeps its own rule
            mixed = np.stack([t, gf.times[1:]], axis=-1)
            got = gf(mixed)
            assert np.array_equal(got[:, 0], gf(t))
            assert np.array_equal(got[:, 1], gf.values[1:])

    def test_grid_point_query_builds_no_spline(self):
        gf = GridFunction.from_callable(np.sin, -5.0, 5.0, 0.02)
        assert np.array_equal(gf(0.0), gf.values[250])
        gf(gf.times[::7])
        assert gf._coeffs is None
        gf(0.011)
        assert gf._coeffs is not None


class TestRestrict:
    def test_restriction_is_grid_aligned(self):
        gf = sine_pair(-3.0, 3.0, 0.01)
        sub = gf.restrict(-1.004, 2.003)
        assert sub.a <= -1.004 + 1e-12 and sub.b >= 2.003 - 1e-12
        assert sub.h == pytest.approx(gf.h)
        k = int(round((sub.a - gf.a) / gf.h))
        assert np.array_equal(sub.values[0], gf.values[k])

    def test_restriction_to_same_window_is_identity(self):
        gf = sine_pair()
        sub = gf.restrict(gf.a, gf.b)
        assert np.array_equal(sub.values, gf.values)


class TestDerivative:
    def test_cubic_differentiated_exactly(self):
        gf = GridFunction.from_callable(
            lambda t: 0.3 * t**3 - t + 2.0, -2.0, 2.0, 0.05
        )
        exact = 0.9 * gf.times**2 - 1.0
        assert np.max(np.abs(gf.derivative_grid()[:, 0] - exact)) < 1e-9

    def test_fourth_order_convergence_on_sine(self):
        errs = []
        for h in (0.1, 0.05):
            gf = GridFunction.from_callable(np.sin, -1.0, 1.0, h)
            errs.append(np.max(np.abs(gf.derivative_grid()[:, 0] - np.cos(gf.times))))
        assert errs[1] < errs[0] / 12.0  # ~16x for genuinely 4th order


class TestCsv:
    def test_header_and_precision(self, tmp_path):
        gf = GridFunction(0.0, 1.0, [[0.1, 0.2], [0.3, 0.4], [0.5, 1.0 / 3.0]])
        path = tmp_path / "sol.csv"
        write_csv(path, gf)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2"
        assert len(lines) == 4
        last = lines[-1].split(",")
        assert float(last[2]) == 1.0 / 3.0  # 17 significant digits round-trip

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    @pytest.mark.parametrize("rows", [1, _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS + 7])
    def test_rows_match_per_value_formatting(self, tmp_path, n, rows):
        rng = np.random.default_rng(n)
        values = rng.standard_normal((rows + 1, n)) * 10.0 ** rng.uniform(-300, 300, (rows + 1, n))
        big = np.finfo(float).max
        specials = [0.0, -0.0, 5e-324, -2.5e-310, big, -big, 1.0 / 3.0]
        values.flat[: len(specials)] = specials[: values.size]
        gf = GridFunction(-3.7, 11.3, values)
        path = tmp_path / "sol.csv"
        write_csv(path, gf)
        # the per-row writer this one replaced
        fmt = ",".join(["%.17g"] * (n + 1)) + "\n"
        expected = ["t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n"] + [
            fmt % tuple(r) for r in np.column_stack([gf.times, gf.values]).tolist()
        ]
        got = path.read_bytes().decode().splitlines(keepends=True)
        assert len(got) == len(expected)
        assert [i for i, (a, b) in enumerate(zip(got, expected)) if a != b] == []


class TestComponentNorm:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_component_norm_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        d = rng.normal(size=(6, 1501, n)) * 10.0 ** rng.integers(-8, 8, size=(6, 1501, n))
        assert np.array_equal(component_norm(d), np.linalg.norm(d, axis=-1))

    def test_sup_norm_is_the_max_row_norm(self):
        gf = sine_pair()
        assert gf.sup_norm == np.max(np.linalg.norm(gf.values, axis=1))


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-5.0, max_value=-0.5),
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=0.05, max_value=0.5),
)
def test_sampling_respects_requested_step(a, b, step):
    gf = GridFunction.from_callable(lambda t: np.cos(t), a, b, step)
    assert gf.h <= step + 1e-12
    assert gf.a == a and gf.b == b


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=1))
def test_double_restriction_matches_single(m, pad):
    rng = np.random.default_rng(m)
    gf = GridFunction(0.0, float(m), rng.normal(size=(m + 1, 2)))
    lo, hi = 0.5 + pad, m - 0.5 - pad
    once = gf.restrict(lo, hi)
    twice = gf.restrict(lo, hi).restrict(lo, hi)
    assert np.array_equal(once.values, twice.values)
