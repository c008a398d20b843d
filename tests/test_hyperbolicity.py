"""Dichotomy/trichotomy estimation, verification, the Green kernel and its shift oracle."""

import functools
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import green_matrix, problem_path, shifted_coefficient
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import trichotomy.hyperbolicity
import trichotomy.propagator
from trichotomy.cli import load_problem
from trichotomy.grid import GridFunction
from trichotomy.hyperbolicity import (
    SLACK_TOL,
    TANGENCY_COND_MAX,
    DichotomyCertificate,
    GreenKernel,
    HyperbolicityError,
    NoDichotomyDetected,
    NonHyperbolicError,
    ProjectorFamily,
    TrichotomyCertificate,
    TrichotomyIncompatibility,
    WindowTooSmall,
    _anchor_times,
    _build_families,
    _family_anchors,
    _inverse_legs,
    _leg_matrices,
    _norms,
    _oblique_projectors,
    _orth_complement,
    _scaled_product_svd,
    _walk,
    build_trichotomy,
    certificate_to_json,
    estimate_constants,
    estimate_stable_projector,
    verify_dichotomy,
)
from trichotomy.propagator import CoefficientMatrix, TransitionOperator
from trichotomy.solvers import solve_linear_bounded


def _shifted_projector(op, P, h):
    """Projector of the shifted system at its time origin: P(h)."""
    M = op.matrix(0.0, h)
    return M @ P @ np.linalg.inv(M)


def _build_shifted(kernel, h):
    """Kernel of the time-shifted system A(t + h) on the same window."""
    A_h = shifted_coefficient(kernel.A, h)
    cert = kernel.cert
    if cert.report.get("estimated", False):
        new = build_trichotomy(A_h, cert.interval[1])
    else:
        new = build_trichotomy(
            A_h,
            cert.interval[1],
            P=_shifted_projector(kernel.op, cert.P, h),
            Q=_shifted_projector(kernel.op, cert.Q, h),
            N=cert.N,
            nu=cert.nu,
        )
    if not new.ok:
        raise HyperbolicityError("shifted system lost its trichotomy; shift too large?")
    return GreenKernel(new)


def green_shift_check(kernel, h, pairs=None):
    """Max residual of the shift identity G_h(t, tau) = G(t + h, tau + h).

    Rebuilds the kernel for the shifted coefficient A(. + h) and compares it
    against the original kernel on a grid of (t, tau) pairs (a default grid
    spans the shrunk window when none is given).  Small residuals are strong
    evidence both kernels were assembled consistently, since the two sides
    go through entirely independent certificate constructions.
    """
    shifted = _build_shifted(kernel, h)
    lo, hi = kernel.window
    s_lo, s_hi = lo + max(0.0, -h), hi - max(0.0, h)
    if pairs is None:
        taus = np.linspace(s_lo, s_hi, 7)
        seps = [-4.0, -1.5, -0.5, 0.5, 1.5, 4.0]
        pairs = []
        for tau in taus:
            for d in seps:
                t = tau + d
                if s_lo <= t <= s_hi:
                    pairs.append((t, tau))
    worst = 0.0
    for t, tau in pairs:
        Gh = green_matrix(shifted, t, tau)
        G = green_matrix(kernel, t + h, tau + h)
        worst = max(worst, float(np.linalg.norm(Gh - G, 2)))
    return worst


def _written(cert):
    """certificate_to_json(cert) after a trip through JSON text."""
    return json.loads(json.dumps(certificate_to_json(cert)))


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

    def test_end_projector_annihilates_the_backward_decaying_class(self):
        # non-normal saddle: stable direction e1, unstable u = (4, 1) / sqrt(17)
        A = CoefficientMatrix.from_strings([["-1", "8"], ["0", "1"]])
        est = estimate_stable_projector(A, (-12.0, 0.0))
        u = np.array([4.0, 1.0]) / np.sqrt(17.0)
        assert np.linalg.norm(est.P - np.diag([1.0, 0.0]), 2) <= 1e-8
        assert np.linalg.norm(est.P_end - (np.eye(2) - np.outer(u, u)), 2) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(st.floats(-60.0, 60.0), st.floats(0.0, 40.0))
def test_anchor_legs_sit_on_the_integer_lattice(lo, length):
    hi = lo + length + 1e-6
    anchors = _anchor_times(lo, hi)
    assert anchors[0] == lo and anchors[-1] == hi
    assert np.all(np.diff(anchors) > 1e-9) and np.all(np.diff(anchors) <= 1.0 + 1e-9)
    inner = anchors[1:-1]
    assert np.array_equal(inner, np.round(inner))


def _oblique_projector(range_basis, kernel_basis):
    """Reference for :func:`_oblique_projectors`: one anchor's projector, refused when tangent."""
    k = range_basis.shape[1]
    X = np.hstack([range_basis, kernel_basis])
    cond = np.linalg.cond(X)
    if not np.isfinite(cond) or cond > TANGENCY_COND_MAX:
        raise NonHyperbolicError(f"range and kernel subspaces are nearly tangent (cond {cond:.3g})")
    return range_basis @ np.linalg.inv(X)[:k, :]


def _assert_projectors_match_the_per_anchor_loop(anchors, R, K):
    """The stacked projectors equal the loop's bit for bit, or both refuse at the same anchor."""
    out = []
    for i, (Ri, Ki) in enumerate(zip(R, K)):
        try:
            out.append(_oblique_projector(Ri, Ki))
        except NonHyperbolicError:
            where = re.escape(f"at t = {anchors[i]:.6g}: cond")
            with pytest.raises(NonHyperbolicError, match=where):
                _oblique_projectors(anchors, R, K)
            return
    assert np.array_equal(_oblique_projectors(anchors, R, K), np.array(out))


def _walk_reference(anchors, legs, starts, step, Z0, lo, hi, proj=None, cap=math.inf):
    """Reference for :func:`_walk`: each pass takes its own 2-norms."""
    starts = np.asarray(starts)
    lo, hi = np.broadcast_to(lo, starts.shape), np.broadcast_to(hi, starts.shape)
    chain, j, Z = np.arange(len(starts)), starts + step, Z0
    rows, chains = [np.empty((0, 4))], [chain[:0]]
    while True:
        live = (j >= 0) & (j < len(anchors))
        t = anchors[np.where(live, j, 0)]
        sep = np.abs(t - anchors[starts[chain]])
        live &= (t >= lo[chain] - 1e-9) & (t <= hi[chain] + 1e-9) & (sep <= cap + 1e-9)
        if not live.any():
            return np.vstack(rows), np.concatenate(chains)
        chain, j, Z, t, sep = chain[live], j[live], Z[live], t[live], sep[live]
        Z = legs[np.minimum(j, j - step)] @ Z
        if proj is not None:
            Z = proj[j] @ Z
        norms = _norms(Z)
        rows.append(np.column_stack([sep, norms, t, anchors[starts[chain]]]))
        chains.append(chain)
        j = j + step


def _assert_walks_match(*args, **kwargs):
    rows, chain = _walk(*args, **kwargs)
    ref_rows, ref_chain = _walk_reference(*args, **kwargs)
    assert np.array_equal(rows, ref_rows) and np.array_equal(chain, ref_chain)


def _orth(basis):
    """One basis's orthonormal basis as the sweeps form it: a column over its norm, else qr."""
    if basis.shape[1] == 1:
        return basis / np.linalg.norm(basis, axis=0)
    return np.linalg.qr(basis)[0]


def _half_family_reference(op, lo, hi, P_seed, rate, lapack):
    """Reference for :func:`_build_families`: one half's family, one sweep and one basis at a time.

    With ``lapack`` every basis goes through qr and a backward step solves
    with its leg, as the sweeps did before they multiplied by inverse legs;
    else each half's legs are inverted on their own and the bases formed by
    :func:`_orth`, the primitives of the lockstep sweeps.
    """
    at_lo = abs(lo) <= abs(hi)
    anchors = _family_anchors(lo, hi, rate)
    legs = _leg_matrices(op, anchors)
    inv_legs = np.linalg.inv(legs)
    orth = (lambda B: np.linalg.qr(B)[0]) if lapack else _orth
    rank = int(round(np.trace(P_seed)))
    U, _, Vt = np.linalg.svd(P_seed)
    seed = Vt[rank:].T if at_lo else U[:, :rank]
    seed = orth(seed) if seed.size else seed

    def forward(B0):
        out = [B0]
        for M in legs:
            out.append(orth(M @ out[-1]) if out[-1].shape[1] else out[-1])
        return out

    def backward(Bm):
        out = [Bm]
        for M, M_inv in zip(legs[::-1], inv_legs[::-1]):
            B = out[-1]
            out.append(orth(np.linalg.solve(M, B) if lapack else M_inv @ B) if B.shape[1] else B)
        return out[::-1]

    if at_lo:
        K = forward(seed)
        R = backward(_orth_complement(K[-1]))
    else:
        R = backward(seed)
        K = forward(_orth_complement(R[0]))
    projectors = _oblique_projectors(anchors, R, K)
    seed_residual = float(np.linalg.norm(projectors[0 if at_lo else -1] - P_seed, 2))
    return ProjectorFamily(op, anchors, projectors, legs, inv_legs, seed_residual)


def _assert_families_match(op, halves, rate):
    """The lockstep families equal the per-half loop's bit for bit, or both give the same refusal."""
    try:
        ref = [_half_family_reference(op, lo, hi, P, rate, lapack=False) for P, lo, hi in halves]
    except NonHyperbolicError as exc:
        with pytest.raises(NonHyperbolicError, match=f"^{re.escape(str(exc))}$"):
            _build_families(op, halves, rate)
        return
    families = _build_families(op, halves, rate)
    assert len(families) == len(ref)
    for fam, fam_ref in zip(families, ref):
        assert fam.op is op
        assert np.array_equal(fam.anchors, fam_ref.anchors)
        assert np.array_equal(fam.legs, fam_ref.legs)
        assert np.array_equal(fam.inv_legs, fam_ref.inv_legs)
        assert np.array_equal(fam.projectors, fam_ref.projectors)
        assert fam.seed_residual == fam_ref.seed_residual


class TestStackedHelpers:
    """The swept certificate's stacked helpers against their per-anchor and per-pass forms."""

    @pytest.mark.parametrize("name", ["rotation", "trich_tanh"])
    def test_bundled_families_match_the_references(self, name, monkeypatch):
        module = trichotomy.hyperbolicity
        build, projectors, walk = module._build_families, module._oblique_projectors, module._walk
        build_args, proj_args, walk_args = [], [], []

        def spy(log, fn):
            return lambda *args, **kwargs: log.append((args, kwargs)) or fn(*args, **kwargs)

        monkeypatch.setattr(module, "_build_families", spy(build_args, build))
        monkeypatch.setattr(module, "_oblique_projectors", spy(proj_args, projectors))
        monkeypatch.setattr(module, "_walk", spy(walk_args, walk))
        build_trichotomy(load_problem(problem_path(name)).A, 12.0)
        # both halves' families from one lockstep build, one projector stack
        # per half; both halves' chains of each branch in one walk, and three
        # direct walks
        assert (len(build_args), len(proj_args), len(walk_args)) == (1, 2, 5)
        for args, _ in build_args:
            _assert_families_match(*args)
        for args, _ in proj_args:
            _assert_projectors_match_the_per_anchor_loop(*args)
        for args, kwargs in walk_args:
            _assert_walks_match(*args, **kwargs)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_random_stacks_match_the_per_anchor_loop(self, n, data):
        """n 1-3, rank 0..n; at up to two anchors a kernel vector is a range vector moved by
        0, 1e-14 or 1e-9, so both forms refuse there, or both accept."""
        k = data.draw(st.integers(0, n))
        m = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        anchors = rng.uniform(-30.0, 0.0) + np.arange(m)
        R = [rng.standard_normal((n, k)) for _ in range(m)]
        K = [rng.standard_normal((n, n - k)) for _ in range(m)]
        if 0 < k < n:
            for i in data.draw(st.sets(st.integers(0, m - 1), max_size=2)):
                gap = data.draw(st.sampled_from([0.0, 1e-14, 1e-9]))
                K[i][:, 0] = R[i][:, 0] + gap * rng.standard_normal(n)
        _assert_projectors_match_the_per_anchor_loop(anchors, R, K)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 8), st.integers(0, 2**32 - 1),
           st.sampled_from([1, -1]), st.booleans(), st.booleans(), st.floats(0.5, 8.0),
           st.sampled_from(["random", "dead", "distinct"]))
    def test_random_walks_match_the_per_pass_norms(self, n, m, seed, step, inverse, project, cap,
                                                   chains):
        """Chains with bounds of their own on a lattice that a NaN anchor may cut in two,
        walked on the legs or on their inverses.

        ``dead`` adds chains that die at their first step (at the lattice's
        end, or bounded to their start anchor), alone or beside the random
        ones; ``distinct`` walks 40 or more chains, in shuffled order, whose
        lifetimes are all distinct."""
        rng = np.random.default_rng(seed)
        if chains == "distinct":
            m, cap = m + 40, math.inf
        anchors = rng.uniform(-10.0, 0.0) + np.arange(m)
        if chains != "distinct" and rng.uniform() < 0.5:
            anchors[rng.integers(m)] = np.nan
        legs = rng.standard_normal((m - 1, n, n)) + 2.0 * np.eye(n)
        starts = rng.integers(0, m, size=rng.integers(1, 6))
        lo, hi = np.sort(rng.uniform(-10.5, m - 9.5, (2, len(starts))), axis=0)
        if chains == "dead":
            last, inner = (m - 1 if step == 1 else 0), rng.integers(0, m)
            dead = (np.array([last, inner]), np.array([-np.inf, anchors[inner]]),
                    np.array([np.inf, anchors[inner]]))
            keep = rng.uniform() < 0.5
            starts, lo, hi = (np.concatenate([old[:len(starts) * keep], new])
                              for old, new in zip((starts, lo, hi), dead))
        elif chains == "distinct":
            starts = rng.permutation(m)[:m - rng.integers(0, 3)]
            lo, hi = -np.inf, np.inf
        proj = rng.standard_normal((m, n, n)) if project else None
        _assert_walks_match(anchors, np.linalg.inv(legs) if inverse else legs, starts, step,
                            rng.standard_normal((len(starts), n, n)), lo, hi, proj=proj, cap=cap)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_families_match_the_per_half_sweeps(self, data):
        """Lockstep families against the per-half loop, on exact legs of a constant A (n 1-3)
        or the Magnus legs of rotation (n 2) and trich_tanh (n 3): one half or two of unequal
        spans, each seeded with a projector of any rank 0..n, so the two halves' sweep widths
        may differ and a width may be 0.  On exact legs a seed may also take the unstable
        eigenvectors as its range and the stable ones as its kernel, so that the swept range
        and kernel can grow tangent: both forms must then give the same refusal."""
        source = data.draw(st.sampled_from(["exact", "rotation", "trich_tanh"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if source == "exact":
            n = data.draw(st.integers(1, 3))
            V = np.linalg.qr(rng.standard_normal((n, n)))[0] + 0.3 * rng.standard_normal((n, n))
            lam = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 3.0, n)
            A = CoefficientMatrix.from_strings(
                [[repr(float(x)) for x in row] for row in V @ np.diag(lam) @ np.linalg.inv(V)])
        else:
            A = load_problem(problem_path(source)).A
            n, V = A.n, np.eye(A.n)
        op = TransitionOperator(A)
        assert (op.eig is not None) == (source == "exact")
        if data.draw(st.booleans()):
            spans = [(0.0, data.draw(st.floats(0.5, 8.0))), (-data.draw(st.floats(0.5, 8.0)), 0.0)]
        else:
            spans = [(lo, lo + data.draw(st.floats(0.5, 8.0)))
                     for lo in data.draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=2))]
        halves = []
        for lo, hi in spans:
            seed = data.draw(st.sampled_from(["eigen", "random"] + ["wrong"] * (source == "exact")))
            W = rng.standard_normal((n, n)) + 2.0 * np.eye(n) if seed == "random" else V
            S = (np.flatnonzero(lam > 0.0) if seed == "wrong"
                 else rng.permutation(n)[:data.draw(st.integers(0, n))])
            halves.append((W[:, S] @ np.linalg.inv(W)[S], lo, hi))
        _assert_families_match(op, halves, data.draw(st.floats(0.4, 3.0)))

    @pytest.mark.parametrize("name", ["rotation", "trich_tanh", "diag_cos"])
    def test_leg_matrices_are_the_dense_legs_at_their_ends(self, name):
        op = TransitionOperator(load_problem(problem_path(name)).A)
        assert (op.eig is not None) == (name == "diag_cos")
        anchors = _anchor_times(-3.5, 4.25)
        expect = np.stack([op.matrix(a, b) for a, b in zip(anchors[:-1], anchors[1:])])
        assert np.array_equal(_leg_matrices(op, anchors), expect)

    def test_tangent_refusal_names_the_first_anchor_its_cond_and_the_limit(self):
        e1, e2 = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
        K = [e2, np.array([[1.0], [1e-13]]), e1]
        message = (r"^range and kernel subspaces are nearly tangent at t = 3: "
                   r"cond\(\[R, K\]\) = 2e\+13 exceeds TANGENCY_COND_MAX = 1e\+12$")
        with pytest.raises(NonHyperbolicError, match=message):
            _oblique_projectors(np.array([2.0, 3.0, 4.0]), [e1] * 3, K)

    @pytest.mark.parametrize("M, what, norm", [(np.zeros((2, 2)), "vanished", "0"),
                                               (np.full((2, 2), 1e308), "overflowed", "inf")])
    def test_product_refusal_names_the_leg_and_what_happened(self, M, what, norm):
        message = (rf"^transition product overflowed or vanished: it {what} on leg \[-1, 0\], "
                   rf"where its Frobenius norm, 1 before that leg, became {norm}$")
        with np.errstate(over="ignore"), pytest.raises(NonHyperbolicError, match=message):
            _scaled_product_svd([2.0 * np.eye(2), M, np.eye(2)], np.array([-2.0, -1.0, 0.0, 0.5]))


@functools.lru_cache(maxsize=None)
def _bundled_halves(name):
    """The operator of a bundled problem and its certificate's P+ and P- at 0 (window 12)."""
    cert = build_trichotomy(load_problem(problem_path(name)).A, 12.0)
    return cert.op, cert.P, np.eye(cert.P.shape[0]) - cert.Q


class TestStackedKernels:
    """The swept certificate's kernels against the LAPACK calls they replace: closed-form
    2-norms against the SVD, inverse legs against solve, one-column bases against qr."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.sampled_from(["random", "rank-one", "zero"]),
           st.integers(-300, 300), st.integers(-300, 300), st.integers(0, 2**32 - 1))
    def test_norms_match_the_svd(self, n, kind, e0, e1, seed):
        """Within 8 eps relative of ``np.linalg.norm(Z, 2, axis=(1, 2))``, on stacks whose
        entries have magnitudes 10^e for e drawn between e0 and e1, from 1e-300 to 1e300."""
        rng = np.random.default_rng(seed)
        lo, hi = sorted((e0, e1))

        def entries(shape, half=False):
            exps = rng.uniform(lo, hi, shape) / (2 if half else 1)
            return rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 10.0, shape) * 10.0 ** exps

        if kind == "random":
            Z = entries((16, n, n))
        elif kind == "rank-one":
            Z = entries((16, n, 1), half=True) * entries((16, 1, n), half=True)
        else:
            Z = np.zeros((16, n, n))
        Z[rng.uniform(size=16) < 0.2] = 0.0
        ref = np.linalg.norm(Z, 2, axis=(1, 2))
        assert np.all(np.abs(_norms(Z) - ref) <= 8.0 * np.finfo(float).eps * ref)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_norms_propagate_nan_and_inf(self, n):
        Z = np.random.default_rng(n).standard_normal((5, n, n))
        Z[0, 0, -1], Z[1, -1, 0], Z[2, 0, 0] = np.nan, np.inf, -np.inf
        Z[3, 0, 0], Z[3, -1, -1] = np.inf, np.nan
        norms = _norms(Z)
        assert np.isnan(norms[0]) and norms[1] == norms[2] == np.inf and np.isnan(norms[3])
        assert norms[4] == pytest.approx(np.linalg.norm(Z[4], 2), rel=8.0 * np.finfo(float).eps)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_families_match_the_qr_and_solve_sweeps(self, data):
        """Within 1e-14 max|P| of the per-half sweeps through ``qr`` and ``solve``.

        The seeds are true projectors, where the sweeps contract: the spectral
        projector of a drawn constant A (n 1-3) on spans anywhere, or the
        certificate's P+ on [0, s] and P- on [-s', 0] of rotation and
        trich_tanh.  (A seed tangent to the repelling class is swept away
        from it, growing the last bits by e^{2 nu} per leg, so no fixed
        bound holds there; ``test_random_families_match_the_per_half_sweeps``
        draws such seeds against the reference of the same primitives.)"""
        source = data.draw(st.sampled_from(["exact", "rotation", "trich_tanh"]))
        if source == "exact":
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            n = data.draw(st.integers(1, 3))
            V = np.linalg.qr(rng.standard_normal((n, n)))[0] + 0.3 * rng.standard_normal((n, n))
            lam = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 3.0, n)
            op = TransitionOperator(CoefficientMatrix.from_strings(
                [[repr(float(x)) for x in row] for row in V @ np.diag(lam) @ np.linalg.inv(V)]))
            P = V[:, lam < 0.0] @ np.linalg.inv(V)[lam < 0.0]
            halves = [(P, lo, lo + data.draw(st.floats(0.5, 8.0)))
                      for lo in data.draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=2))]
        else:
            op, P_plus, P_minus = _bundled_halves(source)
            halves = [(P_plus, 0.0, data.draw(st.floats(0.5, 12.0))),
                      (P_minus, -data.draw(st.floats(0.5, 12.0)), 0.0)]
        rate = data.draw(st.floats(0.4, 3.0))
        families = _build_families(op, halves, rate)
        for fam, (P, lo, hi) in zip(families, halves):
            ref = _half_family_reference(op, lo, hi, P, rate, lapack=True)
            assert np.array_equal(fam.anchors, ref.anchors)
            bound = 1e-14 * np.abs(ref.projectors).max()
            assert np.abs(fam.projectors - ref.projectors).max() <= bound
            assert np.array_equal(fam.inv_legs, np.linalg.inv(ref.legs))

    @pytest.mark.parametrize("leg", ["singular", "nan", "inf"])
    def test_a_leg_that_does_not_invert_is_refused_by_its_span(self, leg):
        eye = np.eye(2)
        bad = {"singular": np.diag([1.0, 0.0]), "nan": np.full((2, 2), np.nan),
               "inf": np.diag([np.inf, 1.0])}[leg]
        lattices = [np.array([-2.0, -1.0, 0.0]), np.array([0.0, 0.5, 1.5])]
        legs = [np.stack([2.0 * eye, eye]), np.stack([eye, bad])]
        message = (r"^the transition matrix of the leg \[0\.5, 1\.5\] does not invert: it is "
                   r"singular or not finite, or its inverse is not finite$")
        with pytest.raises(HyperbolicityError, match=message):
            _inverse_legs(lattices, legs)
        legs[1][1] = 4.0 * eye
        inverses = _inverse_legs(lattices, legs)
        assert len(inverses) == 2
        for M, M_inv in zip(legs, inverses):
            assert np.array_equal(M_inv, np.linalg.inv(M))


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


def _rotating_saddle(a, b, om):
    """A(t) = R(om t) diag(-a, b) R(om t)^T + om J, the frame x = R(om t) y of y' = diag(-a, b) y.

    Phi(t, tau) = R(om t) e^{diag(-a, b)(t - tau)} R(om tau)^T, so P(0) =
    diag(1, 0) with the exact constants N = 1 and nu = min(a, b).
    """
    h, d, w = (b - a) / 2.0, (a + b) / 2.0, 2.0 * om
    return CoefficientMatrix.from_strings([
        [f"{h!r} - {d!r}*cos({w!r}*t)", f"-{d!r}*sin({w!r}*t) - {om!r}"],
        [f"-{d!r}*sin({w!r}*t) + {om!r}", f"{h!r} + {d!r}*cos({w!r}*t)"],
    ])


class TestRotatingSaddleTrichotomy:
    """A supplied certificate on a time-dependent A is accepted exactly when it holds."""

    # the example's fast stable rate amplifies leg error in the unprojected
    # product Phi(0, 9) by e^16: past the RTOL horizon it would reject (1, b)
    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.0, 1.0),
           st.floats(0.01, 1.0), st.sampled_from([-1.0, 1.0]))
    @example(1.8103301680943928, 0.5078979568483621, 0.8212284183827663, 0.5, 1.0)
    def test_true_constants_accepted_wrong_rate_and_tilted_projector_rejected(
            self, a, b, om, tilt, sign):
        op = TransitionOperator(_rotating_saddle(a, b, om))
        rate, P = min(a, b), np.diag([1.0, 0.0])
        cert = build_trichotomy(op, 10.0, P=P, Q=np.eye(2) - P, N=1.0, nu=rate)
        assert isinstance(cert, TrichotomyCertificate)
        assert cert.report["max_slack"] <= SLACK_TOL
        with pytest.raises(NonHyperbolicError, match="certificate rejected"):
            build_trichotomy(op, 10.0, P=P, Q=np.eye(2) - P, N=1.0, nu=1.05 * rate)
        v = np.array([np.cos(tilt), sign * np.sin(tilt)])
        tilted = np.outer(v, v)
        with pytest.raises(NonHyperbolicError, match="certificate rejected"):
            build_trichotomy(op, 10.0, P=tilted, Q=np.eye(2) - tilted, N=5.0, nu=rate / 2.0)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


_log_rate = st.floats(np.log10(0.05), np.log10(60.0))


class TestClosedFormCertificate:
    """A constant hyperbolic A is certified from its eigendecomposition alone."""

    # seed, log10 cond(W), three log10 |Re lam|, three signs, imaginary part, pair?
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0), st.tuples(*[_log_rate] * 3),
           st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3), st.floats(0.1, 10.0), st.booleans())
    # nu is 2.0e-9 relative off the rate here: ||A||_2 = 3,872 and cond_V = 963
    @example(14447, 3.0, (1.0, -1.0, 0.0), (-1.0, -1.0, -1.0), 1.0, False)
    def test_spectral_projector_and_expm_bound(self, seed, log_cond, log_rates, signs, im, pair):
        """A = W B W^-1, cond(W) <= 1e3, B real or with a complex pair re +- i im."""
        d = np.asarray(signs) * 10.0 ** np.asarray(log_rates)
        B = np.diag(d)
        if pair:
            d[1] = d[0]
            B = np.array([[d[0], im, 0.0], [-im, d[0], 0.0], [0.0, 0.0, d[2]]])
        rng = np.random.default_rng(seed)
        scales = np.diag(np.geomspace(1.0, 10.0**log_cond, 3))
        W = _orthogonal(rng, 3) @ scales @ _orthogonal(rng, 3)
        W_inv = np.linalg.inv(W)
        A = W @ B @ W_inv
        P_true = W @ np.diag((d < 0).astype(float)) @ W_inv
        op = TransitionOperator(
            CoefficientMatrix.from_strings([[f"{x:.17g}" for x in row] for row in A]))
        cert = build_trichotomy(op, 10.0)
        assert isinstance(cert, TrichotomyCertificate)
        assert cert.modes is not None and cert.families is None
        assert np.linalg.norm(cert.P - P_true, 2) <= 1e-8 * max(1.0, np.linalg.norm(P_true, 2))
        assert np.array_equal(cert.Q, np.eye(3) - cert.P)
        # the stored A's rounding alone moves an eigenvalue by up to cond_V eps ||A||_2
        rate, health = np.min(np.abs(d)), op.eig_health
        rounding = health["cond_V"] * np.finfo(float).eps * health["norm_A"]
        assert abs(cert.nu - rate) <= max(1e-9 * rate, rounding)
        assert cert.report["eig_residual"] <= 1e-10 * max(1.0, np.linalg.norm(A, 2))
        # scipy's expm is accurate relative to ||e^{At}||: stop while the
        # growing class has not swamped the decaying one
        N, nu = cert.N, cert.nu
        for t in np.linspace(0.0, min(10.0, 4.0 / (np.abs(d).max() + nu)), 41):
            bound = N * np.exp(-nu * t) * (1.0 + 1e-9)
            assert np.linalg.norm(expm(A * t) @ cert.P, 2) <= bound
            assert np.linalg.norm(expm(-A * t) @ cert.Q, 2) <= bound

    def test_non_normal_saddle_certifies_and_solves_without_sweeps_or_legs(self, monkeypatch):
        calls = []

        def refuse(name):
            return lambda *args, **kwargs: calls.append(name)

        for name in ("estimate_stable_projector", "_build_families", "_envelope_fit",
                     "_chain_samples", "_leg_matrices"):
            monkeypatch.setattr(trichotomy.hyperbolicity, name, refuse(name))
        monkeypatch.setattr(TransitionOperator, "solve_leg", refuse("solve_leg"))
        A = np.array([[-1.0, 8.0], [0.0, 1.0]])
        cert = build_trichotomy(CoefficientMatrix.from_strings([["-1", "8"], ["0", "1"]]), 20.0)
        # ||e^{At} P|| = ||(1, 0)|| ||(1, -4)|| e^{-t}: N = sqrt(17), nu = 1
        assert cert.N == pytest.approx(np.sqrt(17.0), rel=1e-12)
        assert cert.nu == 1.0
        assert np.max(np.abs(cert.P - [[1.0, -4.0], [0.0, 0.0]])) <= 1e-12
        f = GridFunction.from_callable(
            lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1), -20.0, 20.0, 0.02
        )
        phi = solve_linear_bounded(GreenKernel(cert), f).restrict(-2.0, 2.0)
        c = np.linalg.solve(1j * np.eye(2) - A, [1.0, -1j])
        exact = (np.exp(1j * phi.times)[:, None] * c).real
        assert np.max(np.abs(phi.values - exact)) <= 1e-6
        assert calls == []

    def test_only_constants_stronger_than_the_closed_form_are_sampled(self, monkeypatch):
        A = CoefficientMatrix.from_strings([["-1", "8"], ["0", "1"]])
        P = np.array([[1.0, -4.0], [0.0, 0.0]])
        calls = []
        check = trichotomy.hyperbolicity._check_spectral_constants

        def counting_check(*args):
            calls.append(args[3:5])
            return check(*args)

        monkeypatch.setattr(trichotomy.hyperbolicity, "_check_spectral_constants", counting_check)
        # N_cf = sqrt(17), nu = 1: weaker constants follow from the closed form
        for N, nu in ((np.sqrt(17.0), 1.0), (4.2, 0.9)):
            build_trichotomy(A, 12.0, P=P, Q=np.eye(2) - P, N=N, nu=nu)
        assert calls == []
        with pytest.raises(NonHyperbolicError, match="N = 4 is below the sampled"):
            build_trichotomy(A, 12.0, P=P, Q=np.eye(2) - P, N=4.0, nu=1.0)
        assert calls == [(4.0, 1.0)]

    def test_supplied_constants_are_checked(self):
        A = CoefficientMatrix.from_strings([["-1", "8"], ["0", "1"]])
        P = np.array([[1.0, -4.0], [0.0, 0.0]])
        ok = build_trichotomy(A, 12.0, P=P, Q=np.eye(2) - P, N=4.2, nu=0.9)
        assert (ok.N, ok.nu) == (4.2, 0.9)
        with pytest.raises(NonHyperbolicError, match="N = 4 is below the sampled .* = 4.12311"):
            build_trichotomy(A, 12.0, P=P, Q=np.eye(2) - P, N=4.0, nu=1.0)
        with pytest.raises(NonHyperbolicError, match="nu = 1.5 exceeds the spectral rate .* = 1 "):
            build_trichotomy(A, 12.0, P=P, Q=np.eye(2) - P, N=5.0, nu=1.5)

    def test_rounding_allowance_rejects_a_nu_just_above_the_rate(self):
        # the rate is 1 and the allowance cond(V) (delta + eps ||A||) about
        # 1e-14, so a nu 1e-9 above the rate is refused, whatever N is supplied
        A = CoefficientMatrix.from_strings([["-1", "8"], ["0", "1"]])
        P = np.array([[1.0, -4.0], [0.0, 0.0]])
        op = build_trichotomy(A, 12.0, P=P, Q=np.eye(2) - P, N=4.2, nu=0.9).op
        health = op.eig_health
        assert health["cond_V"] * (health["eig_residual"] + 2.3e-16 * health["norm_A"]) < 1e-13
        with pytest.raises(NonHyperbolicError, match="exceeds the spectral rate"):
            build_trichotomy(A, 12.0, P=P, Q=np.eye(2) - P, N=1e6, nu=1.0 + 1e-9)


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
        with pytest.raises(TrichotomyIncompatibility) as info:
            build_trichotomy(A, 12.0)
        out = info.value
        assert isinstance(out, NonHyperbolicError)
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


def _lattice_spans(anchors):
    return list(zip(anchors[:-1].tolist(), anchors[1:].tolist()))


class TestOneBatchPerStage:
    """A swept certificate integrates its legs in one batch per stage and fits none."""

    @pytest.fixture
    def spied(self, monkeypatch):
        calls = {"batches": [], "fits": 0}
        magnus_legs = trichotomy.propagator._magnus_legs
        chebyshev_fits = trichotomy.propagator._chebyshev_fits

        def batch(A, spans):
            calls["batches"].append([tuple(span) for span in spans])
            return magnus_legs(A, spans)

        def fit(*args):
            calls["fits"] += 1
            return chebyshev_fits(*args)

        monkeypatch.setattr(trichotomy.propagator, "_magnus_legs", batch)
        monkeypatch.setattr(trichotomy.propagator, "_chebyshev_fits", fit)
        return calls

    @pytest.mark.parametrize("name", ["rotation", "trich_tanh"])
    def test_estimates_then_families(self, spied, monkeypatch, name):
        A = load_problem(problem_path(name)).A
        cert = build_trichotomy(TransitionOperator(A), 12.0)
        estimates = _lattice_spans(_anchor_times(0.0, 12.0)) + _lattice_spans(
            _anchor_times(-12.0, 0.0))
        families = {span for fam in cert.families for span in _lattice_spans(fam.anchors)}
        first, second = spied["batches"]
        assert first == estimates
        assert set(second) == families - set(estimates)
        assert spied["fits"] == 0
        # the batches of the per-estimate and per-family calls give the same bits
        monkeypatch.setattr(trichotomy.hyperbolicity, "_integrate_lattices", lambda *args: None)
        ref = build_trichotomy(TransitionOperator(A), 12.0)
        assert len(spied["batches"]) == 2 + 4
        assert (cert.N, cert.nu) == (ref.N, ref.nu)
        assert np.array_equal(cert.P, ref.P) and np.array_equal(cert.Q, ref.Q)
        for fam, fam_ref in zip(cert.families, ref.families):
            assert np.array_equal(fam.legs, fam_ref.legs)
            assert np.array_equal(fam.projectors, fam_ref.projectors)

    def test_supplied_certificate_takes_one_batch(self, spied, rotation_kernel):
        cert = rotation_kernel.cert
        op = TransitionOperator(cert.op.A)
        build_trichotomy(op, 12.0, P=cert.P, Q=cert.Q, N=cert.N, nu=cert.nu)
        assert len(spied["batches"]) == 1 and spied["fits"] == 0


class TestGreenKernel:
    def test_saddle_closed_form(self, saddle_kernel):
        for t, tau in [(1.0, 0.0), (0.0, 1.0), (3.0, -2.0), (-5.0, -1.0), (-4.0, 2.0)]:
            G = green_matrix(saddle_kernel, t, tau)
            assert np.max(np.abs(G - saddle_green(t, tau))) <= 1e-8

    def test_unit_vector_images(self, saddle_kernel):
        out = green_matrix(saddle_kernel, 1.0, 0.0) @ [1.0, 0.0]
        assert np.allclose(out, [np.exp(-1.0), 0.0], atol=1e-9)
        out = green_matrix(saddle_kernel, 0.0, 1.0) @ [0.0, 1.0]
        assert np.allclose(out, [0.0, -np.exp(-1.0)], atol=1e-9)

    def test_center_branch_tanh(self, trich_kernel):
        out = green_matrix(trich_kernel, 2.0, 1.0) @ [0.0, 0.0, 1.0]
        ratio = np.cosh(1.0) / np.cosh(2.0)
        assert out[2] == pytest.approx(ratio, abs=1e-8)
        assert abs(out[0]) <= 1e-9 and abs(out[1]) <= 1e-9

    def test_tanh_closed_form_across_branches(self, trich_kernel):
        G = green_matrix(trich_kernel, 5.0, 2.0)
        expect = np.diag([np.exp(-3.0), 0.0, np.cosh(2.0) / np.cosh(5.0)])
        assert np.max(np.abs(G - expect)) <= 1e-8

    def test_jump_is_identity(self, saddle_kernel, trich_kernel, rotation_kernel):
        for kernel in (saddle_kernel, trich_kernel, rotation_kernel):
            n = kernel.n
            lo, hi = kernel.window
            for tau in np.linspace(lo + 0.5, hi - 0.5, 7):
                jump = green_matrix(kernel, tau, tau, side="+") - green_matrix(
                    kernel, tau, tau, side="-"
                )
                assert np.max(np.abs(jump - np.eye(n))) <= 1e-6

    def test_equal_times_need_a_side(self, saddle_kernel):
        with pytest.raises(ValueError, match="side"):
            green_matrix(saddle_kernel, 1.0, 1.0)

    def test_decay_bound_on_grid(self, trich_kernel):
        cert = trich_kernel.cert
        pts = np.linspace(-10.0, 10.0, 9)
        for t in pts:
            for tau in pts:
                if t == tau:
                    continue
                g = np.linalg.norm(green_matrix(trich_kernel, t, tau), 2)
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
            assert np.max(np.abs(green_matrix(kernel, t, tau) - expect)) <= 1e-10

    def test_outside_window_rejected(self, trich_kernel):
        with pytest.raises(WindowTooSmall):
            green_matrix(trich_kernel, 20.0, 0.0)

    @pytest.mark.parametrize(
        "make",
        [
            "ok_dichotomy",
            "failed_dichotomy",
            "incompatibility",
        ],
    )
    def test_only_a_built_trichotomy_certificate_is_accepted(
        self, make, saddle_A, rotor_A
    ):
        if make == "ok_dichotomy":
            cert = verify_dichotomy(saddle_A, np.diag([1.0, 0.0]), (0.0, 30.0), 1.0, 0.95)
            assert cert.ok
        elif make == "failed_dichotomy":
            cert = verify_dichotomy(rotor_A, np.diag([1.0, 0.0]), (0.0, 20.0), 1.0, 0.5)
            assert not cert.ok
        else:
            with pytest.raises(TrichotomyIncompatibility) as info:
                build_trichotomy(CoefficientMatrix.from_strings([["atan(t)"]]), 12.0)
            cert = info.value
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
        data = _written(cert)
        assert data["type"] == "trichotomy" and data["ok"] is True
        assert np.max(np.abs(np.asarray(data["P"]) - cert.P)) <= 1e-15
        assert np.max(np.abs(np.asarray(data["Q"]) - cert.Q)) <= 1e-15
        assert data["N"] == cert.N and data["nu"] == cert.nu
        assert tuple(data["interval"]) == cert.interval

    def test_dichotomy_round_trip(self, saddle_A):
        cert = verify_dichotomy(saddle_A, np.diag([1.0, 0.0]), (0.0, 30.0), 1.0, 0.95)
        data = _written(cert)
        assert data["type"] == "dichotomy"
        assert data["ok"] is True
        assert np.max(np.abs(np.asarray(data["P"]) - cert.P)) <= 1e-15

    def test_failed_dichotomy_round_trip(self, rotor_A):
        cert = verify_dichotomy(rotor_A, np.diag([1.0, 0.0]), (0.0, 20.0), 1.0, 0.5)
        data = _written(cert)
        assert data["type"] == "dichotomy"
        assert data["ok"] is False
        assert data["report"] == json.loads(json.dumps(cert.report))
        assert data["report"]["max_slack"] == cert.report["max_slack"] > 0.1
        assert data["report"]["worst_pair"] == cert.report["worst_pair"]
        assert tuple(data["interval"]) == cert.interval
        assert np.array_equal(np.asarray(data["P"]), cert.P)
        assert (data["N"], data["nu"]) == (cert.N, cert.nu)

    def test_incompatibility_serializes_both_projectors(self):
        A = CoefficientMatrix.from_strings([["atan(t)"]])
        with pytest.raises(TrichotomyIncompatibility) as info:
            build_trichotomy(A, 12.0)
        data = certificate_to_json(info.value)
        assert data["ok"] is False
        assert data["compatibility_residual"] == pytest.approx(1.0, abs=1e-6)
        assert data["P_plus"] == [[pytest.approx(0.0, abs=1e-8)]]
        assert data["P_minus"] == [[pytest.approx(1.0, abs=1e-8)]]
