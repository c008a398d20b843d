"""Dichotomy/trichotomy estimation, verification and the Green kernel."""

import json

import numpy as np
import pytest

from trichotomy.hyperbolicity import (
    DichotomyCertificate,
    GreenKernel,
    NoDichotomyDetected,
    NonHyperbolicError,
    TrichotomyCertificate,
    TrichotomyIncompatibility,
    WindowTooSmall,
    build_trichotomy,
    certificate_from_json,
    certificate_to_json,
    estimate_constants,
    estimate_stable_projector,
    green_shift_check,
    verify_dichotomy,
)
from trichotomy.propagator import CoefficientMatrix


def saddle_green(t, tau):
    """Closed-form Green matrix of x' = diag(-1, 1) x on the whole line."""
    if t > tau:
        return np.diag([np.exp(-(t - tau)), 0.0])
    return -np.diag([0.0, np.exp(t - tau)])


class TestEstimateProjector:
    def test_saddle_recovers_diagonal_projector(self, saddle_A):
        est = estimate_stable_projector(saddle_A, (0.0, 20.0))
        assert np.max(np.abs(est.P - np.diag([1.0, 0.0]))) <= 1e-6
        assert est.rank == 1

    def test_rotation_has_no_gap(self, rotor_A):
        with pytest.raises(NoDichotomyDetected):
            estimate_stable_projector(rotor_A, (0.0, 20.0))

    def test_fully_stable_system_gives_identity(self):
        A = CoefficientMatrix.from_strings([["-2", "0"], ["0", "-1"]])
        est = estimate_stable_projector(A, (0.0, 15.0))
        assert est.rank == 2
        assert np.max(np.abs(est.P - np.eye(2))) <= 1e-8

    def test_short_interval_rejected(self, saddle_A):
        with pytest.raises(ValueError):
            estimate_stable_projector(saddle_A, (0.0, 5.0))


class TestEstimateConstants:
    def test_saddle_rate_near_one(self, saddle_A):
        N, nu = estimate_constants(saddle_A, np.diag([1.0, 0.0]), (0.0, 20.0))
        assert 0.9 <= nu <= 1.0
        assert 1.0 <= N <= 1.1

    def test_uniform_decay_rate_three(self):
        A = CoefficientMatrix.from_strings([["-3"]])
        N, nu = estimate_constants(A, [[1.0]], (0.0, 12.0))
        assert nu == pytest.approx(2.85, abs=0.05)
        assert N <= 1.05

    def test_rotation_refused(self, rotor_A):
        with pytest.raises(NonHyperbolicError):
            estimate_constants(rotor_A, np.diag([1.0, 0.0]), (0.0, 20.0))


class TestVerifyDichotomy:
    def test_saddle_certificate_holds(self, saddle_A):
        out = verify_dichotomy(saddle_A, np.diag([1.0, 0.0]), (0.0, 50.0), 1.0, 1.0)
        assert isinstance(out, DichotomyCertificate)
        assert out.ok
        assert out.report["max_slack"] <= 1e-8

    def test_rotation_fails_any_rate(self, rotor_A):
        out = verify_dichotomy(rotor_A, np.diag([1.0, 0.0]), (0.0, 20.0), 1.0, 0.5)
        assert isinstance(out, DichotomyCertificate)
        assert not out.ok
        assert out.report["max_slack"] > 0.1
        assert out.report["worst_pair"] is not None

    def test_wrong_projector_cannot_hide(self, saddle_A):
        # P = I claims the growing coordinate decays; the direct
        # unprojected products must expose it
        out = verify_dichotomy(saddle_A, np.eye(2), (0.0, 12.0), 1.0, 0.9)
        assert isinstance(out, DichotomyCertificate)
        assert not out.ok

    def test_non_idempotent_candidate_rejected(self, saddle_A):
        with pytest.raises(ValueError):
            verify_dichotomy(saddle_A, [[0.5, 0.0], [0.0, 0.0]], (0.0, 50.0), 1.0, 1.0)

    def test_bad_constants_rejected(self, saddle_A):
        with pytest.raises(ValueError):
            verify_dichotomy(saddle_A, np.diag([1.0, 0.0]), (0.0, 50.0), 0.5, 1.0)

    def test_interval_must_cover_ten_efoldings(self, saddle_A):
        with pytest.raises(ValueError, match="10/nu"):
            verify_dichotomy(saddle_A, np.diag([1.0, 0.0]), (0.0, 5.0), 1.0, 1.0)


class TestBuildTrichotomy:
    def test_tanh_three_way_split(self, trich_kernel):
        cert = trich_kernel.cert
        assert isinstance(cert, TrichotomyCertificate)
        assert np.max(np.abs(cert.P - np.diag([1.0, 0.0, 1.0]))) <= 1e-6
        assert np.max(np.abs(cert.Q - np.diag([0.0, 1.0, 1.0]))) <= 1e-6
        assert np.max(np.abs(cert.P1 - np.diag([1.0, 0.0, 0.0]))) <= 1e-6
        assert np.max(np.abs(cert.P2 - np.diag([0.0, 1.0, 0.0]))) <= 1e-6
        assert np.max(np.abs(cert.P3 - np.diag([0.0, 0.0, 1.0]))) <= 1e-6
        res = cert.identity_residuals()
        assert max(res.values()) <= 1e-9

    def test_incompatible_halves_reported(self):
        A = CoefficientMatrix.from_strings([["atan(t)"]])
        out = build_trichotomy(A, 12.0)
        assert isinstance(out, TrichotomyIncompatibility)
        assert not out.ok
        assert out.residual == pytest.approx(1.0, abs=1e-6)
        assert out.P_plus[0, 0] == pytest.approx(0.0, abs=1e-8)
        assert out.P_minus[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_line_dichotomy_is_degenerate_trichotomy(self, saddle_kernel):
        cert = saddle_kernel.cert
        assert np.max(np.abs(cert.Q - (np.eye(2) - cert.P))) <= 1e-9
        assert np.max(np.abs(cert.R)) <= 1e-9

    def test_user_certificate_skips_estimation(self):
        A = CoefficientMatrix.from_strings([["-1"]])
        cert = build_trichotomy(A, 12.0, P=[[1.0]], Q=[[0.0]], N=1.0, nu=1.0)
        assert cert.ok
        assert cert.N == 1.0 and cert.nu == 1.0
        assert cert.report["estimated"] is False

    def test_user_projector_must_be_idempotent(self):
        A = CoefficientMatrix.from_strings([["-1"]])
        with pytest.raises(ValueError, match="idempotent"):
            build_trichotomy(A, 12.0, P=[[0.5]], Q=[[0.0]], N=1.0, nu=1.0)


class TestGreenKernel:
    def test_saddle_closed_form(self, saddle_kernel):
        for t, tau in [(1.0, 0.0), (0.0, 1.0), (3.0, -2.0), (-5.0, -1.0), (-4.0, 2.0)]:
            G = saddle_kernel.matrix(t, tau)
            assert np.max(np.abs(G - saddle_green(t, tau))) <= 1e-8

    def test_unit_vector_images(self, saddle_kernel):
        out = saddle_kernel.matrix(1.0, 0.0) @ [1.0, 0.0]
        assert np.allclose(out, [np.exp(-1.0), 0.0], atol=1e-9)
        out = saddle_kernel.matrix(0.0, 1.0) @ [0.0, 1.0]
        assert np.allclose(out, [0.0, -np.exp(-1.0)], atol=1e-9)

    def test_center_branch_tanh(self, trich_kernel):
        out = trich_kernel.matrix(2.0, 1.0) @ [0.0, 0.0, 1.0]
        ratio = np.cosh(1.0) / np.cosh(2.0)
        assert out[2] == pytest.approx(ratio, abs=1e-8)
        assert abs(out[0]) <= 1e-9 and abs(out[1]) <= 1e-9

    def test_tanh_closed_form_across_branches(self, trich_kernel):
        G = trich_kernel.matrix(5.0, 2.0)
        expect = np.diag([np.exp(-3.0), 0.0, np.cosh(2.0) / np.cosh(5.0)])
        assert np.max(np.abs(G - expect)) <= 1e-8

    def test_jump_is_identity(self, saddle_kernel, trich_kernel, rotation_kernel):
        for kernel in (saddle_kernel, trich_kernel, rotation_kernel):
            n = kernel.n
            lo, hi = kernel.window
            for tau in np.linspace(lo + 0.5, hi - 0.5, 7):
                jump = kernel.matrix(tau, tau, side="+") - kernel.matrix(
                    tau, tau, side="-"
                )
                assert np.max(np.abs(jump - np.eye(n))) <= 1e-6

    def test_equal_times_need_a_side(self, saddle_kernel):
        with pytest.raises(ValueError, match="side"):
            saddle_kernel.matrix(1.0, 1.0)

    def test_decay_bound_on_grid(self, trich_kernel):
        cert = trich_kernel.cert
        pts = np.linspace(-10.0, 10.0, 9)
        for t in pts:
            for tau in pts:
                if t == tau:
                    continue
                g = np.linalg.norm(trich_kernel.matrix(t, tau), 2)
                bound = cert.N * np.exp(-cert.nu * abs(t - tau))
                assert g <= bound * (1.0 + 1e-6) + 1e-12

    def test_projector_split_at_time(self, trich_kernel):
        for s in (-7.0, -1.3, 0.0, 2.4, 9.0):
            Ps = trich_kernel.stable_projector(s)
            Us = trich_kernel.unstable_projector(s)
            assert np.max(np.abs(Ps + Us - np.eye(3))) <= 1e-9
            assert np.linalg.norm(Ps @ Ps - Ps, 2) <= 1e-9

    def test_outside_window_rejected(self, trich_kernel):
        with pytest.raises(WindowTooSmall):
            trich_kernel.matrix(20.0, 0.0)

    def test_halfline_mode_from_dichotomy_certificate(self, halfline_kernel):
        assert halfline_kernel.mode == "halfline"
        assert isinstance(halfline_kernel.cert, DichotomyCertificate)
        for t, tau in [(2.0, 1.0), (1.0, 2.0), (10.0, 3.0)]:
            G = halfline_kernel.matrix(t, tau)
            assert np.max(np.abs(G - saddle_green(t, tau))) <= 1e-8

    def test_whole_line_dichotomy_certificate_rejected(self, saddle_A):
        cert = DichotomyCertificate(
            interval=(-10.0, 10.0), P=np.diag([1.0, 0.0]), N=1.0, nu=0.95
        )
        with pytest.raises(ValueError, match="half-line"):
            GreenKernel(saddle_A, cert)

    def test_failed_dichotomy_certificate_refused(self, rotor_A):
        out = verify_dichotomy(rotor_A, np.diag([1.0, 0.0]), (0.0, 20.0), 1.0, 0.5)
        assert not out.ok
        with pytest.raises(ValueError, match="max_slack"):
            GreenKernel(rotor_A, out)

    def test_shift_invariance_autonomous(self, saddle_kernel):
        assert green_shift_check(saddle_kernel, 1.0) <= 1e-8

    def test_shift_consistency_time_dependent(self, rotation_kernel):
        assert green_shift_check(rotation_kernel, 0.7) <= 1e-6

    def test_zero_shift_is_exact(self, scalar_kernel):
        assert green_shift_check(scalar_kernel, 0.0) <= 1e-12


class TestSerialization:
    def test_trichotomy_round_trip(self, trich_kernel):
        cert = trich_kernel.cert
        data = certificate_to_json(cert)
        back = certificate_from_json(data)
        assert isinstance(back, TrichotomyCertificate)
        assert np.max(np.abs(back.P - cert.P)) <= 1e-15
        assert np.max(np.abs(back.Q - cert.Q)) <= 1e-15
        assert back.N == cert.N and back.nu == cert.nu
        assert back.interval == cert.interval

    def test_dichotomy_round_trip(self, saddle_A):
        cert = verify_dichotomy(saddle_A, np.diag([1.0, 0.0]), (0.0, 30.0), 1.0, 0.95)
        back = certificate_from_json(certificate_to_json(cert))
        assert isinstance(back, DichotomyCertificate)
        assert back.ok
        assert np.max(np.abs(back.P - cert.P)) <= 1e-15

    def test_failed_dichotomy_round_trip(self, rotor_A):
        cert = verify_dichotomy(rotor_A, np.diag([1.0, 0.0]), (0.0, 20.0), 1.0, 0.5)
        data = certificate_to_json(cert)
        assert data["ok"] is False
        back = certificate_from_json(json.dumps(data))
        assert isinstance(back, DichotomyCertificate)
        assert back.ok is False
        assert back.report == json.loads(json.dumps(cert.report))
        assert back.report["max_slack"] == cert.report["max_slack"] > 0.1
        assert back.report["worst_pair"] == cert.report["worst_pair"]
        assert back.interval == cert.interval
        assert np.array_equal(back.P, cert.P)
        assert (back.N, back.nu) == (cert.N, cert.nu)
        with pytest.raises(ValueError, match="max_slack"):
            GreenKernel(rotor_A, back)

    def test_incompatibility_serializes_both_projectors(self):
        A = CoefficientMatrix.from_strings([["atan(t)"]])
        out = build_trichotomy(A, 12.0)
        data = certificate_to_json(out)
        assert data["ok"] is False
        assert data["compatibility_residual"] == pytest.approx(1.0, abs=1e-6)
        assert data["P_plus"] == [[pytest.approx(0.0, abs=1e-8)]]
        assert data["P_minus"] == [[pytest.approx(1.0, abs=1e-8)]]
