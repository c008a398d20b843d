"""Dichotomy/trichotomy estimation, verification and the Green kernel."""

import json

import numpy as np
import pytest
from scipy.linalg import expm

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

    def test_left_half_line_saddle_certificate_holds(self, saddle_A):
        out = verify_dichotomy(saddle_A, np.diag([1.0, 0.0]), (-50.0, 0.0), 1.0, 1.0)
        assert out.ok
        assert out.report["max_slack"] <= 1e-8

    @pytest.mark.parametrize("P", [np.eye(2), np.zeros((2, 2))], ids=["identity", "zero"])
    def test_left_half_line_wrong_projector_rejected(self, saddle_A, P):
        # on (-12, 0) the data end is 0, so the direct products run backward
        out = verify_dichotomy(saddle_A, P, (-12.0, 0.0), 1.0, 0.9)
        assert not out.ok
        assert out.report["max_slack"] > 1e3

    def test_interval_must_cover_ten_efoldings(self, saddle_A):
        with pytest.raises(ValueError, match="10/nu"):
            verify_dichotomy(saddle_A, np.diag([1.0, 0.0]), (0.0, 5.0), 1.0, 1.0)

    @pytest.mark.parametrize(
        "P", [[[1.0, -1.0], [0.0, 1e-11]], [[1.0, -1.0], [0.0, 0.0]]], ids=["near", "exact"]
    )
    def test_oblique_near_projector_seeds_its_kernel(self, P):
        # the forward sweep starts from the kernel of P, (1, 1); a seed
        # spanning the complement of its range instead, (0, 1), would leave
        # a seed residual near 1 and reject a correct certificate
        A = CoefficientMatrix.from_strings([["-1", "2"], ["0", "1"]])
        out = verify_dichotomy(A, P, (0.0, 30.0), 3.0, 1.0)
        assert out.ok
        assert out.report["seed_residual"] <= 1e-10


class TestNonNormalSaddleOracle:
    """x' = [[-1, 2], [0, 1]] x: spectral projector P_s = [[1, -1], [0, 0]], rate 1.

    Phi(t, tau) P_s = e^{-(t - tau)} P_s and Phi(t, tau)(I - P_s) =
    e^{t - tau}(I - P_s), so the sharp constants are nu = 1 and
    N* = max(||P_s||, ||I - P_s||) = sqrt(2), attained at separation 0.
    """

    A = CoefficientMatrix.from_strings([["-1", "2"], ["0", "1"]])
    P_s = np.array([[1.0, -1.0], [0.0, 0.0]])
    N_star = np.sqrt(2.0)

    @pytest.mark.parametrize("interval, pairs", [((0.0, 20.0), 470), ((-20.0, 0.0), 466)])
    def test_sharp_constants_accepted_and_no_smaller_n(self, interval, pairs):
        ok = verify_dichotomy(self.A, self.P_s, interval, self.N_star, 1.0)
        assert ok.ok
        assert ok.report["max_slack"] <= 1e-12
        assert ok.report["pairs_checked"] == pairs
        low = verify_dichotomy(self.A, self.P_s, interval, 0.999 * self.N_star, 1.0)
        assert not low.ok
        assert low.report["max_slack"] == pytest.approx(0.001 * self.N_star, abs=1e-12)
        assert low.report["pairs_checked"] == pairs

    @pytest.mark.parametrize("interval", [(0.0, 20.0), (-20.0, 0.0)])
    def test_fitted_constants(self, interval):
        N, nu = estimate_constants(self.A, self.P_s, interval)
        assert N == pytest.approx(self.N_star, abs=1e-12)
        assert nu == pytest.approx(0.95, abs=1e-9)


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

    def test_projectors_are_invariant_on_time_dependent_system(self, rotation_kernel):
        # P(s1) Phi(s1, s0) = Phi(s1, s0) P(s0) on each half-line and across 0
        P = rotation_kernel.stable_projector
        for s0, s1 in [(1.5, 4.0), (6.0, 2.2), (-6.2, -2.0), (-1.0, -5.5), (-3.0, 2.5), (2.5, -3.0)]:
            Phi = rotation_kernel.op.matrix(s0, s1)
            gap = P(s1) @ Phi - Phi @ P(s0)
            assert np.linalg.norm(gap, 2) / max(1.0, np.linalg.norm(Phi, 2)) <= 1e-8

    def test_oblique_projectors_closed_form(self):
        # non-normal saddle: the spectral projector onto e1 along (1, 1) is oblique
        A = np.array([[-1.0, 2.0], [0.0, 1.0]])
        P_s = np.array([[1.0, -1.0], [0.0, 0.0]])
        coeff = CoefficientMatrix.from_strings([["-1", "2"], ["0", "1"]])
        kernel = GreenKernel(
            build_trichotomy(coeff, 12.0, P=P_s, Q=np.eye(2) - P_s, N=3.0, nu=1.0)
        )
        # both sides of both half-lines, including a source time tau < 0
        pairs = [(3.0, 1.0), (1.0, 3.0), (2.0, -3.0), (-3.0, 2.0), (-1.0, -4.0), (-4.0, -1.0)]
        for t, tau in pairs:
            E = expm(A * (t - tau))
            expect = E @ P_s if t > tau else -E @ (np.eye(2) - P_s)
            assert np.max(np.abs(kernel.matrix(t, tau) - expect)) <= 1e-10

    def test_outside_window_rejected(self, trich_kernel):
        with pytest.raises(WindowTooSmall):
            trich_kernel.matrix(20.0, 0.0)

    @pytest.mark.parametrize(
        "make",
        [
            "ok_dichotomy",
            "failed_dichotomy",
            "trichotomy_from_json",
            "incompatibility",
        ],
    )
    def test_only_a_built_trichotomy_certificate_is_accepted(
        self, make, saddle_A, rotor_A, trich_kernel
    ):
        if make == "ok_dichotomy":
            cert = verify_dichotomy(saddle_A, np.diag([1.0, 0.0]), (0.0, 30.0), 1.0, 0.95)
            assert cert.ok
        elif make == "failed_dichotomy":
            cert = verify_dichotomy(rotor_A, np.diag([1.0, 0.0]), (0.0, 20.0), 1.0, 0.5)
            assert not cert.ok
        elif make == "trichotomy_from_json":
            cert = certificate_from_json(certificate_to_json(trich_kernel.cert))
            assert isinstance(cert, TrichotomyCertificate) and cert.families is None
        else:
            cert = build_trichotomy(CoefficientMatrix.from_strings([["atan(t)"]]), 12.0)
            assert isinstance(cert, TrichotomyIncompatibility)
        with pytest.raises(ValueError, match="build_trichotomy"):
            GreenKernel(cert)

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

    def test_incompatibility_serializes_both_projectors(self):
        A = CoefficientMatrix.from_strings([["atan(t)"]])
        out = build_trichotomy(A, 12.0)
        data = certificate_to_json(out)
        assert data["ok"] is False
        assert data["compatibility_residual"] == pytest.approx(1.0, abs=1e-6)
        assert data["P_plus"] == [[pytest.approx(0.0, abs=1e-8)]]
        assert data["P_minus"] == [[pytest.approx(1.0, abs=1e-8)]]
