"""Remote-almost-periodicity diagnostics, Lagrange reports, audits."""

import csv
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trichotomy import rap
from trichotomy.grid import _CSV_BLOCK_ROWS, GridFunction
from trichotomy.hyperbolicity import WindowTooSmall
from trichotomy.rap import (
    DEFAULT_T_SCHEDULE,
    almost_period_scan,
    lagrange_report,
    remote_period_residual,
    solution_rap_audit,
)


def _mismatched_lines(got: bytes, expected: bytes) -> list:
    """Indices of the lines that differ, plus a marker when the counts differ."""
    a, b = got.splitlines(keepends=True), expected.splitlines(keepends=True)
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y] + (
        [] if len(a) == len(b) else [f"{len(a)} lines, expected {len(b)}"])


@pytest.fixture(scope="module")
def sine():
    return GridFunction.from_callable(np.sin, -45.0, 45.0, 0.02)


@pytest.fixture(scope="module")
def arctan():
    return GridFunction.from_callable(np.arctan, -60.0, 60.0, 0.02)


@pytest.fixture(scope="module")
def drift():
    return GridFunction.from_callable(lambda t: t, -45.0, 45.0, 0.02)


@pytest.fixture(scope="module")
def quasi():
    return GridFunction.from_callable(
        lambda t: np.sin(t) + np.sin(np.sqrt(2.0) * t), -40.0, 40.0, 0.02
    )


class TestResidual:
    def test_exact_period_of_sine(self):
        # fine grid: the residual at an exact period is pure interpolation
        # noise, which must sit below 1e-9 at this resolution
        fine = GridFunction.from_callable(np.sin, -50.0, 50.0, 0.01)
        assert remote_period_residual(fine, 2.0 * np.pi, 10.0) <= 1e-9

    def test_arctan_tail_difference(self, arctan):
        res = remote_period_residual(arctan, 1.0, 10.0)
        assert res == pytest.approx(0.01099, abs=1e-4)
        # the worst side is the negative one, at the horizon itself
        assert res == pytest.approx(np.arctan(-9.0) - np.arctan(-10.0), abs=1e-9)

    def test_drift_never_improves(self, drift):
        assert remote_period_residual(drift, 1.0, 10.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_single_side_selection(self, arctan):
        plus = remote_period_residual(arctan, 1.0, 10.0, side="+")
        minus = remote_period_residual(arctan, 1.0, 10.0, side="-")
        both = remote_period_residual(arctan, 1.0, 10.0, side="both")
        assert both == pytest.approx(max(plus, minus), abs=1e-15)
        assert minus > plus  # arctan flattens slower on the side it came from

    def test_window_must_reach_past_horizon(self, sine):
        with pytest.raises(WindowTooSmall, match="increase window") as exc:
            remote_period_residual(sine, 45.0, 10.0, side="+")
        assert str(exc.value).count("increase window T to >= 55") == 1

    def test_negative_horizon_rejected(self, sine):
        with pytest.raises(ValueError):
            remote_period_residual(sine, 1.0, -1.0)

    def test_unknown_side_rejected(self, sine):
        with pytest.raises(ValueError):
            remote_period_residual(sine, 1.0, 10.0, side="up")


def _reference_residual(phi, tau, T, side):
    """The residual formula as a masked loop over each side, one (tau, T) at a time.

    A NaN sample among those compared makes the residual NaN.
    """
    t = phi.times
    worst, any_samples = 0.0, False
    for s in (["+", "-"] if side == "both" else [side]):
        beyond = (t >= T - 1e-12) if s == "+" else (t <= -T + 1e-12)
        mask = beyond & (t + tau <= phi.b + 1e-12) & (t + tau >= phi.a - 1e-12)
        if mask.any():
            any_samples = True
            diff = phi(t[mask] + tau) - phi.values[mask]
            worst = float(np.maximum(worst, np.linalg.norm(diff, axis=1).max()))
    return worst if any_samples else math.nan


def _reference_table(phi, taus, schedule, side):
    table = np.full((len(taus), len(schedule)), math.nan)
    for i, tau in enumerate(taus):
        for j, T in enumerate(schedule):
            table[i, j] = _reference_residual(phi, tau, T, side)
    return table


def _reference_omega(phi):
    """``lagrange_report``'s modulus ladder as one norm pass per shift of 1 to 16 steps."""
    h, vals = phi.h, phi.values
    ladder = [h * k for k in (1, 2, 4, 8, 16) if k < vals.shape[0]]
    omega, w, steps = [], 0.0, 0
    for delta in ladder:
        k = int(round(delta / h))
        for j in range(steps + 1, k + 1):
            w = max(w, float(np.linalg.norm(vals[j:] - vals[:-j], axis=-1).max()))
        steps = k
        omega.append(w)
    return omega


def _same_bits(got, expected):
    """Equal arrays, NaN where the other has NaN, and the same bits everywhere else."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    nan = np.isnan(expected)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64)))


@st.composite
def _shifts(draw, length, h, m):
    """Taus on the grid, off it, zero, and within 0.5e-9 steps of a whole step.

    A whole-step shift puts a sample at the window's edge, so the nudged
    ones are where a range judged by index alone and the 1e-12 window test
    disagree.
    """
    whole = st.integers(-m - 2, m + 2)
    kind = st.sampled_from(["grid", "off", "nudged", "zero"])
    taus = []
    for k in draw(st.lists(kind, min_size=1, max_size=24)):
        if k == "grid":
            taus.append(draw(whole) * h)
        elif k == "off":
            taus.append(draw(st.floats(-1.2 * length, 1.2 * length)))
        elif k == "nudged":
            nudge = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-13.0, math.log10(5e-10)))
            taus.append((draw(whole) + nudge) * h)
        else:
            taus.append(0.0)
    return np.array(taus)


class TestResidualTable:
    @pytest.fixture(scope="class")
    def planar(self):
        # two components, so the residual is a vector norm; window [-15, 15]
        # is too short for the horizons 20 and 40 of the default schedule
        return GridFunction.from_callable(
            lambda t: np.stack([np.sin(1.3 * t), np.arctan(t)], axis=-1),
            -15.0, 15.0, 0.02,
        )

    @pytest.mark.parametrize("side", ["+", "-", "both"])
    def test_matches_masked_loop_bit_for_bit(self, planar, side):
        # tau step 0.03 is not a multiple of h = 0.02; the range crosses 0
        # and reaches shifts that leave no sample beyond T = 10
        taus = -9.0 + 0.03 * np.arange(600)
        table = rap._residual_table(planar, taus, DEFAULT_T_SCHEDULE, side)
        ref = _reference_table(planar, taus, DEFAULT_T_SCHEDULE, side)
        assert np.array_equal(table, ref, equal_nan=True)
        assert np.isnan(table[:, 2:]).all()
        assert not np.isnan(table[:, 0]).any()
        if side != "both":  # one side alone runs out of samples at T = 10
            assert np.isnan(table[:, 1]).any() and not np.isnan(table[:, 1]).all()

    @pytest.mark.parametrize("side", ["+", "-", "both"])
    @pytest.mark.parametrize(
        "case",
        ["on_grid_taus", "three_components", "unsorted_schedule", "constant", "two_constants"],
    )
    def test_more_inputs_match_masked_loop_bit_for_bit(self, planar, case, side):
        taus = -9.0 + 0.07 * np.arange(260)
        schedule = DEFAULT_T_SCHEDULE
        phi = planar
        if case == "on_grid_taus":
            # the benchmark's scan: multiples of h, in a count that leaves a
            # partial block at the end
            taus = 0.5 + 0.02 * np.arange(301)
            assert taus.size % max(1, rap._BLOCK_SAMPLES // phi.times.size) != 0
        elif case == "three_components":
            phi = GridFunction.from_callable(
                lambda t: np.stack(
                    [np.sin(1.3 * t), np.arctan(t), np.cos(0.7 * t) * np.tanh(t)], axis=-1
                ),
                -15.0, 15.0, 0.02,
            )
        elif case == "unsorted_schedule":
            schedule = (10.0, 0.0, 20.0, 5.0)
            taus = np.concatenate([taus[130:], [0.0], taus[:130]])
        elif case == "constant":
            phi = GridFunction.from_callable(lambda t: 0.0 * t + 0.75, -15.0, 15.0, 0.02)
        else:
            phi = GridFunction.from_callable(
                lambda t: np.stack([0.0 * t + 0.75, 0.0 * t - 2.5], axis=-1), -15.0, 15.0, 0.02
            )
        table = rap._residual_table(phi, taus, schedule, side)
        # each entry depends on its own horizon only, so the reference runs
        # over the sorted schedule and its columns are put back in order
        order = np.argsort(schedule)
        ref = np.empty_like(table)
        ref[:, order] = _reference_table(phi, taus, np.asarray(schedule)[order], side)
        assert np.array_equal(table, ref, equal_nan=True)
        if case in ("constant", "two_constants"):
            assert np.all(table[~np.isnan(table)] == 0.0)

    def test_constant_input_skips_the_spline(self, planar, monkeypatch):
        const = GridFunction.from_callable(
            lambda t: np.stack([0.0 * t + 0.75, 0.0 * t - 2.5], axis=-1), -15.0, 15.0, 0.02
        )
        # one constant component is not enough
        half = GridFunction(planar.a, planar.b, np.column_stack([const.values[:, 0],
                                                                 planar.values[:, 1]]))
        calls = []
        spline = GridFunction.__call__
        monkeypatch.setattr(GridFunction, "__call__",
                            lambda gf, t, nu=0: calls.append(gf) or spline(gf, t, nu))
        taus = -9.0 + 0.07 * np.arange(260)
        rap._residual_table(const, taus, DEFAULT_T_SCHEDULE, "both")
        assert calls == []
        rap._residual_table(half, taus, DEFAULT_T_SCHEDULE, "both")
        assert calls and all(gf is half for gf in calls)

    def test_whole_step_shifts_read_the_samples(self, planar, monkeypatch):
        calls = []
        spline = GridFunction.__call__
        monkeypatch.setattr(GridFunction, "__call__",
                            lambda gf, t, nu=0: calls.append(gf) or spline(gf, t, nu))
        rap._residual_table(planar, 0.5 + 0.02 * np.arange(301), DEFAULT_T_SCHEDULE, "both")
        assert calls == []
        # every other tau of a 0.03 step is off the grid
        rap._residual_table(planar, -9.0 + 0.03 * np.arange(600), DEFAULT_T_SCHEDULE, "both")
        assert calls and all(gf is planar for gf in calls)

    def test_blocks_bound_the_memory_of_a_long_grid(self):
        # 301 taus on m = 20,001 samples: the whole (taus, m) batch of
        # shifted norms alone would take 48 MB
        phi = GridFunction.from_callable(np.sin, -200.0, 200.0, 0.02)
        assert phi.times.size == 20001
        phi.coeffs  # built once per function, before the table
        taus = 0.5 + 0.02 * np.arange(301)
        tracemalloc.start()
        try:
            table = rap._residual_table(phi, taus, DEFAULT_T_SCHEDULE, "both")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.isnan(table).any()
        assert peak < 4e6, peak

    def test_shift_past_the_window_is_all_nan(self, planar):
        table = rap._residual_table(planar, [40.0], (0.0, 5.0), "both")
        assert np.isnan(table).all()


class TestDrawnTables:
    """Residual tables and modulus ladders on drawn inputs, against their per-shift loops."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_table_matches_the_masked_loop(self, data):
        draw = data.draw
        n = draw(st.sampled_from([1, 2, 3, 9]))
        a, length = draw(st.floats(-40.0, 10.0)), draw(st.floats(0.5, 40.0))
        m = draw(st.integers(2, 400))
        # unit samples, samples whose differences square below the normal
        # range, or a constant
        scale = draw(st.sampled_from([1.0, 1e-156, 1e-170, 0.0]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        phi = GridFunction(a, a + length, scale * rng.standard_normal((m, n)) + (scale == 0.0))
        # a spike at one end makes the shifts that reach that sample the largest
        phi.values[draw(st.sampled_from([0, -1]))] += 8.0 * scale
        if draw(st.booleans()):
            phi.values[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = np.nan
        taus = draw(_shifts(length, phi.h, m))
        schedule = draw(st.lists(st.floats(0.0, abs(a) + length + 1.0), min_size=1, max_size=4))
        side = draw(st.sampled_from(["+", "-", "both"]))
        # one tau per block, two, or the default
        block = draw(st.sampled_from([1, 2 * m, rap._BLOCK_SAMPLES]))
        with mock.patch.object(rap, "_BLOCK_SAMPLES", block):
            table = rap._residual_table(phi, taus, schedule, side)
        assert _same_bits(table, _reference_table(phi, taus, schedule, side))

    @pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")  # m = 2
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 60), st.sampled_from([1, 2, 3, 9]), st.sampled_from([1.0, 1e-156]),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 40, rap._BLOCK_SAMPLES]))
    def test_modulus_ladder_matches_the_per_shift_loop(self, m, n, scale, seed, block):
        rng = np.random.default_rng(seed)
        phi = GridFunction(-3.0, 5.0, scale * rng.standard_normal((m, n)))
        phi.values[-1] += 8.0 * scale  # the last pair of each shift is its largest
        with mock.patch.object(rap, "_BLOCK_SAMPLES", block):
            omega = lagrange_report(phi).omega_hat
        assert len(omega) == len(_reference_omega(phi))
        assert _same_bits(omega, _reference_omega(phi))


class TestScan:
    def test_sine_accepts_only_near_its_period(self, sine):
        rep = almost_period_scan(sine, 0.05, (0.5, 8.0), 0.25)
        assert rep.accepted == [6.25]
        assert rep.L_hat[6.25] == 5.0
        assert rep.ell_hat == pytest.approx(5.75)
        assert rep.not_relatively_dense is False
        assert rep.two_sided is True

    def test_arctan_horizon_ladder(self, arctan):
        rep = almost_period_scan(
            arctan, 0.011, (0.5, 3.0), 0.5, schedule=(5.0, 10.0, 20.0)
        )
        # every shift is eventually accepted, but larger shifts need to look
        # farther out before the tail difference drops below eps
        assert rep.accepted == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        assert rep.L_hat[0.5] == 10.0
        assert rep.L_hat[3.0] == 20.0
        assert all(
            rep.L_hat[a] <= rep.L_hat[b]
            for a, b in zip(rep.accepted, rep.accepted[1:])
        )
        assert math.isfinite(rep.ell_hat)

    def test_drift_accepts_nothing(self, drift):
        rep = almost_period_scan(drift, 0.4, (0.5, 8.0), 0.5)
        assert rep.accepted == []
        assert rep.not_relatively_dense is True
        assert math.isinf(rep.ell_hat)

    def test_quasi_periodic_has_sparse_but_finite_gaps(self, quasi):
        # sin t + sin(sqrt(2) t): good shifts need 2 pi k with sqrt(2) k near
        # an integer; k = 5 (tau ~ 31.4) is the first one under 35
        rep = almost_period_scan(quasi, 0.5, (0.5, 35.0), 0.1, schedule=(5.0, 10.0))
        assert len(rep.accepted) >= 1
        assert all(30.0 <= tau <= 33.0 for tau in rep.accepted)
        assert math.isfinite(rep.ell_hat)
        assert 25.0 <= rep.ell_hat <= 34.5

    def test_report_serialization(self, sine):
        rep = almost_period_scan(sine, 0.05, (0.5, 8.0), 0.25)
        data = rep.to_json()
        assert data["accepted"] == [6.25]
        assert data["not_relatively_dense"] is False
        assert len(data["residual_curves"]) == len(rep.tau_values)
        assert data["T_schedule"] == [5.0, 10.0, 20.0, 40.0]

    def test_csv_layout(self, sine, tmp_path):
        rep = almost_period_scan(sine, 0.05, (0.5, 8.0), 0.25)
        path = tmp_path / "residuals.csv"
        rep.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,T_5,T_10,T_20,T_40"
        assert len(lines) == 1 + len(rep.tau_values)

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    @pytest.mark.parametrize("rows", [1, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 7])
    def test_csv_and_json_match_the_per_row_writers(self, tmp_path, n, rows):
        rng = np.random.default_rng(n)
        schedule = tuple(float(T) for T in rng.uniform(0.0, 50.0, n))
        residuals = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-300, 300, (rows, n))
        residuals[rng.random((rows, n)) < 0.2] = math.nan
        residuals.flat[:2] = [-0.0, 5e-324][: residuals.size]
        taus = 0.5 + 0.02 * np.arange(rows)
        rep = rap.RapReport(eps=0.1, side="both", schedule=schedule, tau_values=taus,
                            residuals=residuals, accepted=[], L_hat={}, ell_hat=math.inf,
                            not_relatively_dense=True, two_sided=True)
        path = tmp_path / "residuals.csv"
        rep.write_csv(path)
        # the csv.writer rows these writers replaced
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["tau"] + [f"T_{T:g}" for T in schedule])
        for i, tau in enumerate(taus):
            writer.writerow([f"{tau:.12g}"] + ["" if math.isnan(v) else f"{v:.12g}"
                                               for v in residuals[i]])
        assert _mismatched_lines(path.read_bytes(), buf.getvalue().encode()) == []
        curves = []
        for i, tau in enumerate(taus):
            row = {"tau": float(tau)}
            for j, T in enumerate(schedule):
                v = residuals[i, j]
                row[f"T_{T:g}"] = None if math.isnan(v) else float(v)
            curves.append(row)
        got = rep.to_json()["residual_curves"]
        assert len(got) == len(curves)
        assert [i for i, (a, b) in enumerate(zip(got, curves))
                if json.dumps(a) != json.dumps(b) or list(map(type, a.values()))
                != list(map(type, b.values()))] == []

    def test_bad_parameters_rejected(self, sine):
        with pytest.raises(ValueError):
            almost_period_scan(sine, -0.1, (0.5, 8.0), 0.5)
        with pytest.raises(ValueError):
            almost_period_scan(sine, 0.1, (0.5, 8.0), 0.0)
        coarse = GridFunction.from_callable(np.sin, -45.0, 45.0, 0.5)
        with pytest.raises(ValueError, match="coarser"):
            almost_period_scan(coarse, 0.1, (0.5, 8.0), 0.1)


class TestLagrange:
    def test_sine_is_stable(self, sine):
        rep = lagrange_report(sine)
        assert rep.bounded is True
        assert rep.uc_doubtful is False
        assert rep.lagrange_stable is True
        assert rep.slope == pytest.approx(1.0, abs=0.2)
        assert rep.omega_hat == sorted(rep.omega_hat)

    def test_drift_grows_at_the_edges(self, drift):
        rep = lagrange_report(drift)
        assert rep.bounded is False
        assert rep.lagrange_stable is False

    def test_unresolved_oscillation_flags_continuity(self):
        chirp = GridFunction.from_callable(
            lambda t: np.sin(t**2), -40.0, 40.0, 0.02
        )
        rep = lagrange_report(chirp)
        assert rep.bounded is True
        assert rep.uc_doubtful is True
        assert rep.lagrange_stable is False
        assert rep.slope < 0.5

    def test_constant_function(self):
        flat = GridFunction.from_callable(lambda t: 0.0 * t + 2.0, -10.0, 10.0, 0.02)
        rep = lagrange_report(flat)
        assert rep.bounded is True
        assert rep.uc_doubtful is False
        assert rep.slope == 1.0

    def test_ladder_layout(self, sine):
        rep = lagrange_report(sine)
        h = sine.h
        assert rep.delta_ladder == pytest.approx([h, 2 * h, 4 * h, 8 * h, 16 * h])
        assert rep.window == (sine.a, sine.b)


class TestAudit:
    def test_periodic_data_periodic_solution(self, sine):
        const = GridFunction.from_callable(lambda t: 0.0 * t - 1.0, -45.0, 45.0, 0.02)
        report = solution_rap_audit(
            phi=sine,
            inputs={"A_0_0": const, "f_1": sine},
            eps_ladder=[0.1, 0.05],
            tau_range=(0.5, 8.0),
            tau_step=0.25,
        )
        for eps in (0.1, 0.05):
            entry = report.entries[eps]
            assert entry["input_accepted"]["A_0_0"] == list(
                np.arange(0.5, 8.01, 0.25)
            )
            assert entry["common_input_accepted"] == entry["input_accepted"]["f_1"]
            assert entry["missing"] == []
            assert entry["compatible_evidence"] is True

    def test_incompatible_solution_is_reported(self, drift):
        const = GridFunction.from_callable(lambda t: 0.0 * t + 1.0, -45.0, 45.0, 0.02)
        report = solution_rap_audit(
            phi=drift,
            inputs={"f_1": const},
            eps_ladder=[0.1],
            tau_range=(1.0, 3.0),
            tau_step=1.0,
        )
        entry = report.entries[0.1]
        assert entry["common_input_accepted"] == [1.0, 2.0, 3.0]
        assert entry["solution_accepted"] == []
        assert entry["missing"] == [1.0, 2.0, 3.0]
        assert entry["compatible_evidence"] is False

    def test_eps_ladder_equals_separate_audits(self, sine, drift):
        inputs = {
            "f_1": sine,
            "g": GridFunction.from_callable(
                lambda t: np.sin(t) + 0.05 * np.cos(3.0 * t), -45.0, 45.0, 0.02
            ),
        }
        phi = GridFunction(sine.a, sine.b, sine.values + 1e-2 * drift.values)
        scan = ((0.5, 8.0), 0.05)
        both = solution_rap_audit(phi, inputs, [0.1, 0.05], *scan)
        for eps in (0.1, 0.05):
            alone = solution_rap_audit(phi, inputs, [eps], *scan)
            assert both.entries[eps] == alone.entries[eps]
        # the two thresholds really differ on these tables
        assert both.entries[0.1] != both.entries[0.05]
        assert both.entries[0.05]["missing"]

    def test_one_residual_table_per_function(self, sine, monkeypatch):
        calls = []
        table = rap._residual_table

        def counted(phi, *args):
            calls.append(phi)
            return table(phi, *args)

        monkeypatch.setattr(rap, "_residual_table", counted)
        const = GridFunction.from_callable(lambda t: 0.0 * t - 1.0, -45.0, 45.0, 0.02)
        inputs = {"A_0_0": const, "f_1": sine, "f_2": sine}
        solution_rap_audit(sine, inputs, [0.1, 0.05], (0.5, 8.0), 0.25)
        assert len(calls) == len(inputs) + 1

    def test_repeated_eps_rejected(self, sine):
        # per-eps entries are keyed by eps, so a repeat would collapse them
        with pytest.raises(ValueError, match="repeats"):
            solution_rap_audit(sine, {"f_1": sine}, [0.1, 0.05, 0.1], (0.5, 2.0), 0.5)

    def test_inputs_must_share_window(self, sine):
        small = GridFunction.from_callable(np.sin, -10.0, 10.0, 0.02)
        with pytest.raises(ValueError, match="window"):
            solution_rap_audit(
                sine, {"f_1": small}, [0.1], (0.5, 2.0), 0.5
            )

    def test_json_shape(self, sine):
        report = solution_rap_audit(
            sine, {"f_1": sine}, [0.2], (0.5, 2.0), 0.5
        )
        data = report.to_json()
        assert data["eps_ladder"] == [0.2]
        assert data["scan_params"]["T_schedule"] == list(DEFAULT_T_SCHEDULE)
        assert "0.2" in data["per_eps"]
        assert data["per_eps"]["0.2"]["compatible_evidence"] is True


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
)
def test_residual_triangle_inequality(quasi, k1, k2):
    h = quasi.h
    tau1, tau2 = k1 * h, k2 * h
    T = 10.0
    lhs = remote_period_residual(quasi, tau1 + tau2, T)
    rhs = remote_period_residual(quasi, tau1, T) + remote_period_residual(
        quasi, tau2, T - tau1
    )
    assert lhs <= rhs + 1e-9
