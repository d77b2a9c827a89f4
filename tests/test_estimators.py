import dataclasses
import math
import re
import tracemalloc
import warnings
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from poscocycle.config import build_driver, build_model, validate_config
from poscocycle.drivers import BLOCK_CELLS, IidShift, TorusRotation, advance_steps
from poscocycle.errors import EstimationError, PositivityViolation
from poscocycle.estimators import (MatrixCocycle, OdeCocycle, DivergenceDiagnostic, SeparationEstimate,
                                   forward_floquet, lambda1_via_kappa, oseledets_qr,
                                   pullback_convergence, separation_estimate, warmup_direction)
from poscocycle import odes
from poscocycle.estimators import (FloquetTrack, _column_norms, _enforce_cone, _norm, _orth_complement,
                                   _projection_norm, _qr, _spectral_norm, _stored, _transposed)
from poscocycle.matrices import (ConstantMatrixModel, IidChoiceModel, SampledMatrixModel, UniformEntriesModel,
                                 leslie_model)
from poscocycle.odes import (CallableOdeModel, ConstantOdeModel, PiecewiseConstantOdeModel,
                            PiecewiseUniformOdeModel, TypeKFlipModel, cooperative_sampler, propagate)
from poscocycle.pipelines import run_command
from poscocycle.stats import batch_means
from poscocycle.torus import TorusExampleModel


def disc_state(seed=0):
    return IidShift().initial(seed)


def cont_state(seed=0):
    return IidShift(time="continuous").initial(seed)


def iid_positive_cocycle(n=3, lo=0.5, hi=2.0):
    return MatrixCocycle(UniformEntriesModel(n, lo, hi))


def half_cell_field(state, t):
    """A smooth cooperative field that jumps at every half-integer
    position of a continuous i.i.d. shift."""
    x = state.pos + state.pos_lo + t
    jump = math.floor(2.0 * x) % 2
    return np.array([[-1.0 + 0.5 * math.sin(x), 0.3 + 0.4 * jump, 0.1],
                     [0.2, -0.5 * jump, 0.5 + 0.2 * math.cos(x)],
                     [0.6 - 0.3 * jump, 0.1, -0.2]])


def half_cell_edges(state, t0, t1):
    p = state.pos + state.pos_lo
    ts = np.arange(math.floor(2.0 * (p + t0)) + 1, math.ceil(2.0 * (p + t1))) / 2.0 - p
    return ts[(ts > t0) & (ts < t1)]


def _steps(chunks):
    """The (M, log_scale) pairs of a chunk stream, in stream order.  A chunk
    is freed before the next is built: its final pair is a copy in the
    map's own layout, so the loop reading the pairs holds no view into it
    by then."""
    for maps, ls in chunks:
        final = maps[-1].copy(order="K"), float(ls[-1])
        yield from zip(maps[:-1], ls[:-1].tolist())
        del maps, ls
        yield final


class StoredMatrixCocycle(MatrixCocycle):
    """Serves its replays from one stored array, as ``OdeCocycle`` does:
    one forward ``step_blocks`` read, read back through ``_stored``."""

    def replay(self, omega, lo, hi):
        maps, ls = zip(*((maps.copy(), ls.copy()) for maps, ls in self.step_blocks(omega, lo, hi)))
        return _stored(np.concatenate(maps), np.concatenate(ls), lo)


class BareCocycle:
    """Nothing but what the estimators may read of a cocycle (``n``, ``dt``,
    ``cone_tol``, ``step_blocks``, ``replay``, ``advance``), taken from a
    wrapped one."""

    def __init__(self, inner):
        self.n, self.dt, self.cone_tol = inner.n, inner.dt, inner.cone_tol
        self.step_blocks, self.replay, self.advance = inner.step_blocks, inner.replay, inner.advance


def restricted_product(coc, omega, T, warmup):
    """The explicit product Pi (I - z z^T) M_k B0 over steps [0, T) of a
    matrix cocycle, unscaled, with B0 and the dual directions z built as
    ``separation_estimate`` builds them, here kept for every step; also the
    sum over the steps of rho_k = |M_k|_F |P_k|_F / |M_k P_k|_F (P_k the
    product so far), the cancellation factor of each step's matrix product."""
    maps = [M for chunk, _ in coc.step_blocks(omega, 0, T + warmup) for M in chunk]
    z = [np.full(coc.n, 1.0 / math.sqrt(coc.n))]  # z at step T + warmup, then each earlier step
    for M in reversed(maps):
        v = M.T @ z[-1]
        z.append(v / _norm(v))
    z.reverse()
    P, rho = _orth_complement(z[0]), 0.0
    for k, M in enumerate(maps[:T]):
        V = M @ P
        rho += np.linalg.norm(M) * np.linalg.norm(P) / np.linalg.norm(V)
        P = V - np.outer(z[k + 1], z[k + 1] @ V)
    return P, rho


def same(a, b):
    """Bit-identical estimator results: arrays, floats, dataclasses and
    tuples or lists of them."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    return np.array_equal(a, b)


class TestForwardFloquet:
    def test_all_ones_one_step(self):
        coc = MatrixCocycle(ConstantMatrixModel(np.ones((3, 3))))
        track = forward_floquet(coc, disc_state(), np.eye(3)[0], 1)
        assert np.allclose(track.w, np.ones(3) / np.sqrt(3), atol=1e-15)
        track2 = forward_floquet(coc, disc_state(), np.ones(3) / np.sqrt(3), 50)
        assert abs(track2.lambda1 - np.log(3.0)) < 1e-13

    def test_symmetric_flow(self):
        coc = OdeCocycle(ConstantOdeModel([[0.0, 1.0], [1.0, 0.0]]), dt=0.25, rtol=1e-10)
        track = forward_floquet(coc, cont_state(), np.array([1.0, 0.0]), 20.0)
        assert abs(track.lambda1 - 1.0) < 0.05  # raw probe carries an O(1/T) transient
        assert np.linalg.norm(track.w - np.array([1.0, 1.0]) / np.sqrt(2)) < 1e-10
        w0 = warmup_direction(coc, cont_state(), 80)
        warmed = forward_floquet(coc, cont_state(), w0, 20.0)
        assert abs(warmed.lambda1 - 1.0) < 1e-8

    def test_fibonacci(self):
        phi = (1 + np.sqrt(5.0)) / 2
        coc = MatrixCocycle(leslie_model([1.0, 1.0], [1.0]))
        w0 = warmup_direction(coc, disc_state(), 60)
        track = forward_floquet(coc, disc_state(), w0, 40)
        assert abs(track.lambda1 - np.log(phi)) < 1e-13

    def test_cone_violation_reported(self):
        coc = MatrixCocycle(ConstantMatrixModel([[1.0, -2.0], [0.0, 1.0]]))
        with pytest.raises(PositivityViolation) as exc:
            forward_floquet(coc, disc_state(), np.array([0.5, 0.5]), 5)
        assert exc.value.witness == (1, 0, -0.7071067811865476)
        # a roundoff-level excursion below the orthant is clipped, not raised
        coc = MatrixCocycle(ConstantMatrixModel([[0.0, 1.0], [-1e-13, 0.0]]))
        track = forward_floquet(coc, disc_state(), np.array([1.0, 1.0]), 1)
        assert track.w.tolist() == [1.0, 0.0]

    # the block cases plant the NaN in the second 256-map block and run 293
    # steps longer, so a step named by its offset inside a chunk would differ
    @pytest.mark.parametrize("run, bad, shift", [
        pytest.param(lambda coc, T: forward_floquet(coc, disc_state(), np.ones(3), T), 7, 0,
                     id="forward"),
        pytest.param(lambda coc, T: oseledets_qr(coc, disc_state(), T), 7, 0, id="qr"),
        pytest.param(lambda coc, T: separation_estimate(coc, disc_state(), T, warmup=5), 7, 0,
                     id="separation"),
        # past the horizon only the backward adjoint sweep reads the map
        pytest.param(lambda coc, T: separation_estimate(coc, disc_state(), T, warmup=5), 22, 0,
                     id="separation-adjoint"),
        pytest.param(lambda coc, T: forward_floquet(coc, disc_state(), np.ones(3), T), 7, 293,
                     id="forward-block"),
        pytest.param(lambda coc, T: oseledets_qr(coc, disc_state(), T), 7, 293, id="qr-block"),
        pytest.param(lambda coc, T: separation_estimate(coc, disc_state(), T, warmup=5), 7, 293,
                     id="separation-block"),
        pytest.param(lambda coc, T: separation_estimate(coc, disc_state(), T, warmup=5), 22, 293,
                     id="separation-adjoint-block"),
    ])
    def test_non_finite_step_named(self, run, bad, shift):
        bad += shift

        class NanAt(SampledMatrixModel):
            def emit(self, state):
                S = super().emit(state)
                return S * math.nan if state.index == bad else S

        class NanBlockAt(UniformEntriesModel):
            def emit_block(self, state, count):
                maps = super().emit_block(state, count)
                if 0 <= bad - state.index < count:
                    maps[bad - state.index] = math.nan
                return maps

        if shift:
            assert 256 <= bad < 512
            model = NanBlockAt(3, 0.5, 2.0)
        else:
            model = NanAt(3, lambda rng: rng.uniform(0.5, 2.0, (3, 3)))
        with pytest.raises(EstimationError, match=f"step {bad} "):
            run(MatrixCocycle(model), 20 + shift)

    def test_warm_up_steps_named_from_base_point(self):
        # a bad map at step -3 is named "step -3" by every command that walks
        # it before the base point: the warm-ups and both pullbacks
        class NanAt(SampledMatrixModel):
            def emit(self, state):
                S = super().emit(state)
                return S * math.nan if state.index == -3 else S

        coc = MatrixCocycle(NanAt(3, lambda rng: rng.uniform(0.5, 2.0, (3, 3))))
        for run in (lambda: separation_estimate(coc, disc_state(), 10, warmup=5),
                    lambda: warmup_direction(coc, disc_state(), 5),
                    lambda: pullback_convergence(coc, disc_state(), 2),  # the deeper pullback
                    lambda: pullback_convergence(coc, disc_state(), 5)):  # the shallower one
            with pytest.raises(EstimationError, match="after step -3 "):
                run()
        # the first warm-up step from -5 leaves the cone at time -4
        coc = MatrixCocycle(ConstantMatrixModel([[1.0, -2.0], [0.0, 1.0]]))
        with pytest.raises(PositivityViolation, match="t = -4:") as exc:
            warmup_direction(coc, disc_state(), 5)
        assert exc.value.witness == (-4, 0, -0.7071067811865476)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
               st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
               st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))),
           st.integers(1, 300), st.integers(0, 10**6))
    def test_diagonal_conjugation(self, logd_u0, T, seed):
        # D A_k D^-1 from D u0 has the iterates D x_k: the log growths differ
        # by log(|D x_T| / |x_T|) - log(|D u0| / |u0|), each in [log d_min, log d_max]
        logd, u0 = logd_u0
        d, u0 = np.exp(logd), np.array(u0)
        n = d.size

        def sampler(rng):
            return rng.uniform(0.5, 2.0, (n, n))

        a = forward_floquet(MatrixCocycle(SampledMatrixModel(n, sampler)),
                            disc_state(seed), u0, T)
        b = forward_floquet(MatrixCocycle(SampledMatrixModel(
                                n, lambda rng: d[:, None] * sampler(rng) / d[None, :])),
                            disc_state(seed), d * u0, T)
        assert abs(b.lambda1 - a.lambda1) <= math.log(d.max() / d.min()) / T + 1e-12
        Dw = d * a.w
        assert np.abs(b.w - Dw / np.linalg.norm(Dw)).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)),
           st.integers(1, 300), st.integers(0, 10**6))
    def test_diagonal_conjugation_separation(self, logd, T, seed):
        # B_k = D A_k D^-1 has the dual path D^-1 z_k, the complement D E_k
        # and the growths of D-images: in exact arithmetic the B run is the A
        # run started from D^-1 1 (principal) and D 1 (dual), measured in the
        # norm |D .|.  With L = log(d_max / d_min) that gives, in T sigma:
        # - the norm: |D x| / |x| lies in [d_min, d_max], so the principal
        #   growth moves by at most L and the restricted norm by at most L;
        # - the starts: D^-1 1 and 1 lie L apart in Hilbert's projective
        #   metric, and W steps of maps with entries in [lo, hi] contract it
        #   by tau^W, Birkhoff's tau = (q - 1) / (q + 1), q = hi / lo.  The
        #   principal direction at step 0 is then delta = tau^W L away, which
        #   moves its growth by at most delta (P >= 0 keeps entrywise ratios);
        # - the dual direction at step T is delta away too, so the two unit
        #   vectors differ by e = e^delta - 1 (as in test_block_matches_columns),
        #   and the complements at 0 are the preimages of their null
        #   hyperplanes.  Shifting a complement vector u' along the principal
        #   v to the other complement moves |P u'| by at most eps |P u'| and
        #   |u'| by eps |P u'| / |P v|, with eps = e / (z_T . P v / |P v|) and
        #   z_T . P v / |P v| >= 1 / q^2 (both are images under a map or its
        #   transpose, unit vectors with every entry at least 1 / (q sqrt n));
        #   |P v| >= min(v) |P 1| >= |P|_2 / (q sqrt n) bounds the restricted
        #   norm over |P v| by q sqrt n, so the restricted norm moves by at most
        #   log((1 + eps q sqrt n) / (1 - eps));
        # - rounding: each step's frame product and QR are backward stable to
        #   about (N + 2)^2 eps of |M|, and the rounding of the dual direction
        #   stays within 2 gamma_(N+2) / (1 - tau) by the same contraction; that
        #   relative error moves the step's restricted growth, at least
        #   sigma_min(M), by at most cond(M) times it, in either run.
        lo, hi, W = 0.5, 2.0, 50
        d = np.exp(logd)
        n = d.size

        def sampler(rng):
            return rng.uniform(lo, hi, (n, n))

        models = [SampledMatrixModel(n, sampler),
                  SampledMatrixModel(n, lambda rng: d[:, None] * sampler(rng) / d[None, :])]
        a, b = (separation_estimate(MatrixCocycle(m), disc_state(seed), T, warmup=W) for m in models)
        q = hi / lo
        L = math.log(d.max() / d.min())
        delta = ((q - 1) / (q + 1)) ** W * L
        eps_z = math.expm1(delta) * q ** 2
        restricted = math.log1p(eps_z * q * math.sqrt(n)) - math.log1p(-eps_z)
        conds = sum(np.linalg.cond(np.stack([m.emit(disc_state(seed).advance(k)) for k in range(T)])).sum()
                    for m in models)
        rounding = 2 * (n + 2) ** 2 * np.finfo(float).eps * conds
        assert abs(b.sigma_hat - a.sigma_hat) * T <= 2 * L + delta + restricted + rounding

    @pytest.mark.parametrize("n, kill", [(3, None), (5, None), (4, 37)])
    def test_block_matches_columns(self, n, kill):
        # Each computed column is the exact orbit of its probe perturbed, per
        # step, entrywise by a factor in [1 - g, 1 + g], g = gamma_{N+2}: a
        # sum of N nonnegative products, then a division.  In Hilbert's
        # projective metric that is at most d = ln((1 + g) / (1 - g)) per
        # step, and a map with entries in [lo, hi] contracts the metric by
        # Birkhoff's tau = (hi/lo - 1) / (hi/lo + 1), so every column stays
        # within d / (1 - tau) of the exact orbit, in the block and alone.
        # Two unit vectors at Hilbert distance e differ by at most e^e - 1
        # in norm (their unit length is known to (N + 2) eps each).  A
        # step's ln rho moves by at most e, and by the rounding of its norm
        # and logarithm; each sum of T of them by gamma_T sum |ln rho|.
        # With ``kill``, coordinate 0 is its own block, zeroed at step kill:
        # the e_0 probe is annihilated there, the others live on coordinates
        # 1..N-1, on which the maps are positive.
        eps, T, lo, hi = np.finfo(float).eps, 300, 0.5, 2.0
        gamma = lambda m: m * eps / (1 - m * eps)  # noqa: E731
        g = gamma(n + 2)
        e = 2 * math.log((1 + g) / (1 - g)) / (1 - (hi / lo - 1) / (hi / lo + 1))
        dir_bound = math.expm1(e) + 2 * (n + 2) * eps

        class Blocked(SampledMatrixModel):
            def emit(self, state):
                S = super().emit(state)
                S[0, 1:] = S[1:, 0] = 0.0
                if state.index == kill:
                    S[0, 0] = 0.0
                return S

        model = (Blocked if kill else SampledMatrixModel)(n, lambda rng: rng.uniform(lo, hi, (n, n)))
        rng = np.random.default_rng(n)
        probes = np.column_stack([np.eye(n)[0], np.ones(n), rng.uniform(0.0, 1.0, n)])
        if kill:
            probes[0, 1:] = 0.0
        block = forward_floquet(MatrixCocycle(model), disc_state(2), probes, T, record_every=1)
        for j, track in enumerate(block):
            alone = forward_floquet(MatrixCocycle(model), disc_state(2), probes[:, j], T, record_every=1)
            if kill and j == 0:
                # e_0 is mapped exactly, alone or in the block
                assert track.lambda1 == alone.lambda1 == -math.inf
                assert len(track.times) == len(alone.times) == kill
                assert np.array_equal(track.w, alone.w) and not track.w.any()
                assert np.array_equal(track.directions, alone.directions)
                continue
            assert len(track.times) == len(alone.times) == T
            assert np.abs(track.directions - alone.directions).max() <= dir_bound
            assert np.linalg.norm(track.w - alone.w) <= dir_bound
            ln_rho_bound = e + 2 * gamma(2 * n + 4) + 2 * eps * np.abs(alone.log_rho).max()
            assert np.abs(track.log_rho - alone.log_rho).max() <= ln_rho_bound
            sum_bound = T * ln_rho_bound + 2 * gamma(T) * np.abs(alone.log_rho).sum()
            assert abs(track.log_growth - alone.log_growth) <= sum_bound
        # a 1-D probe gives one track, a one-column block a list of one
        [one] = forward_floquet(MatrixCocycle(model), disc_state(2), probes[:, 1:2], T)
        assert one.log_growth == forward_floquet(MatrixCocycle(model), disc_state(2), probes[:, 1], T).log_growth

    def test_history_recording(self):
        coc = iid_positive_cocycle()
        track = forward_floquet(coc, disc_state(3), np.ones(3), 20, record_every=1)
        assert len(track.times) == len(track.log_rho) == len(track.directions) == 20
        assert abs(sum(track.log_rho) - track.log_growth) < 1e-12


    def test_sampler_called_once_per_step(self):
        # a model without block draws is emitted one state at a time and a
        # block-drawing one in block draws, in chunks of at most 256 states:
        # either way, exactly the cells each estimator reads.  Separation
        # reads its maps twice, the adjoint sweep [0, T + 5) and the forward
        # sweep [-5, T), and stores none of them: 2T + 2 * 5 cells
        calls = []

        def sampler(rng):
            calls.append(1)
            return rng.uniform(0.5, 2.0, (3, 3))

        class CountingUniform(UniformEntriesModel):
            def emit_block(self, state, count):
                calls.extend([1] * count)
                return super().emit_block(state, count)

        T = 300
        for run, cells in ((lambda coc: forward_floquet(coc, disc_state(4), np.ones(3), T), T),
                           (lambda coc: oseledets_qr(coc, disc_state(4), T), T),
                           (lambda coc: separation_estimate(coc, disc_state(4), T, warmup=5),
                            2 * T + 2 * 5)):
            for model in (SampledMatrixModel(3, sampler), CountingUniform(3, 0.5, 2.0)):
                calls.clear()
                run(MatrixCocycle(model))
                assert len(calls) == cells, type(model)

    def test_orbit_reads_two_depths_of_maps(self):
        # the depth-2d probe walks d steps alone, then both walk d as a block
        cells = []

        class CountingUniform(UniformEntriesModel):
            def emit_block(self, state, count):
                cells.append(count)
                return super().emit_block(state, count)

        orbit, dist = pullback_convergence(MatrixCocycle(CountingUniform(3, 0.5, 2.0)), disc_state(4), 300)
        assert sum(cells) == 2 * 300 and len(orbit.ns) == 301 and dist <= 1e-12

    def test_flow_maps_built_once(self, monkeypatch):
        # separation stores the flow maps of [0, T + warmup) and reads them
        # twice from the store, and the warm-up reads those of [-warmup, 0):
        # T + 2 * warmup maps over the two reads, with one expm per unit cell
        # each read's steps cross (3 over [0, 3], 1 + 4 over [-0.7, 0] and
        # [0, 3.7]).  Over the adjoint, which stores nothing, the two walks
        # read their maps afresh: 2 T + 2 * warmup maps.  maps holds the
        # size of each chunk walked, expms that of each stacked expm call,
        # one per chunk built.
        maps, expms = [], []
        walk, expm = odes._walk, odes.expm

        def counted_walk(model, first, k, dt):
            maps.append(k)
            return walk(model, first, k, dt)

        def counted_expm(A):
            expms.append(len(A))
            return expm(A)

        monkeypatch.setattr(odes, "_walk", counted_walk)
        monkeypatch.setattr(odes, "expm", counted_expm)
        for warmup, cells in ((0, 3), (7, 5)):
            maps.clear()
            expms.clear()
            model = PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 1.0, 0.0, 1.0))
            separation_estimate(OdeCocycle(model, dt=0.1), cont_state(4), 3.0, warmup=warmup)
            assert sum(maps) == 30 + 2 * warmup and sum(expms) == cells and len(expms) == len(maps)
            maps.clear()
            separation_estimate(OdeCocycle(model, dt=0.1).dual(), cont_state(4), 3.0, warmup=warmup)
            assert sum(maps) == 2 * 30 + 2 * warmup

    def test_backward_read_takes_one_expm_per_cell(self, monkeypatch):
        # 1000 steps at dt = 0.1 cover 100 unit cells either way; each chunk
        # of 256 steps takes one expm per cell it touches, so each of the
        # three cells that straddle a chunk cut takes one in each chunk, in
        # a backward read too, where the chunks come latest first.  expms
        # holds the size of each stacked expm call, one per chunk.
        expms, expm = [], odes.expm

        def counted_expm(A):
            expms.append(len(A))
            return expm(A)

        monkeypatch.setattr(odes, "expm", counted_expm)
        coc = OdeCocycle(PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 1.0, 0.0, 1.0)), dt=0.1)
        for backward in (False, True):
            expms.clear()
            assert sum(len(maps) for maps, _ in coc.step_blocks(cont_state(4), 0, 1000, backward)) == 1000
            assert expms == ([24, 26, 27, 26] if backward else [26, 27, 26, 24]), backward

    def test_read_names_few_base_points(self, monkeypatch):
        # a forward read names each chunk's first base point (two advances:
        # the product and its rounding error), and a base point only for a
        # step that flow_maps propagates: the steps inside a cell, and those
        # taken whole with an end within _NEAR dt of a cell edge, name none.
        # From an integer start dt puts cell edges on step ends and no step
        # is propagated; from 0.37 one step a cell crosses an edge
        calls, advance, members, dop853 = [0], IidShift.advance, [0], odes._dop853

        def counted(self, state, t):
            calls[0] += 1
            return advance(self, state, t)

        def batch(model, batches, ahead):
            def counted():
                for states, *rest in batches:
                    members[0] += len(states)
                    yield states, *rest
            return dop853(model, counted(), ahead)

        coc, count = OdeCocycle(PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0)),
                                dt=0.1), 2000
        dt, near, chunks = coc.dt, odes._NEAR * coc.dt, -(-count // BLOCK_CELLS)
        for start, lo, hi in ((0.0, 350, 450), (0.37, 150, 250)):
            omega = cont_state(4).advance(start)
            starts = omega.pos + dt * np.arange(count)
            edged = np.floor(starts + dt + near) > np.floor(starts - near)
            assert lo < edged.sum() < hi, start  # about two steps per cell from 0, one from 0.37
            calls[0] = members[0] = 0
            monkeypatch.setattr(IidShift, "advance", counted)
            monkeypatch.setattr(odes, "_dop853", batch)
            assert sum(len(maps) for maps, _ in coc.step_blocks(omega, 0, count)) == count
            monkeypatch.undo()
            assert members[0] <= edged.sum() and (members[0] == 0) == (start == 0.0), (start, members[0])
            assert calls[0] <= 2 * chunks + 2 * members[0], (start, calls[0], members[0])

    def test_batch_error_names_the_member(self):
        # one step of a chunk meets a NaN field on its second piece: the
        # step from position 4.8 has an edge at 0.2 and NaN past it
        def field(state, t):
            x = state.pos + state.pos_lo + t
            return np.full((2, 2), np.nan) if 5.0 <= x < 5.05 else np.array([[-1.0, 0.5], [0.5, -1.0]])

        def edges(state, t0, t1):
            ts = np.array([5.0 - state.pos - state.pos_lo])
            return ts[(ts > t0) & (ts < t1)]

        coc = OdeCocycle(CallableOdeModel(2, field, edges), dt=0.3, rtol=1e-8)
        with pytest.raises(EstimationError, match=r"non-finite error estimate at t = 0\.2 inside the smooth "
                                                  r"piece \(0\.2, 0\.3\)"):
            list(coc.step_blocks(cont_state(), 0, 30))

    def test_model_change_seen_by_next_run(self):
        # the cocycle keeps no maps: after the model's parameters change, a
        # run through it equals one through a fresh cocycle
        model, omega = UniformEntriesModel(3, 0.5, 2.0), disc_state(1)
        coc = MatrixCocycle(model)
        before = forward_floquet(coc, omega, np.ones(3), 100).lambda1
        model.lo, model.hi = 1.0, 4.0
        after = forward_floquet(coc, omega, np.ones(3), 100).lambda1
        fresh = forward_floquet(MatrixCocycle(model), omega, np.ones(3), 100).lambda1
        assert after == fresh and after != before

    def test_chunks_match_emit(self):
        # primal and adjoint chunks are the emitted maps, with queries
        # jumping across 256-map blocks and between seeds; primal chunks
        # stay inside one 256-map block
        coc, driver = iid_positive_cocycle(), IidShift()
        emit = coc.model.emit
        for j in (0, 255, 44, 555, 256, -1):
            for seed in (8, 9):
                omega = driver.initial(seed).advance(-300 + j)
                [(maps, ls)] = coc.step_blocks(omega, 0, 1)
                assert np.array_equal(maps[0], emit(omega)) and ls.tolist() == [0.0]
                [(maps, _)] = coc.dual().step_blocks(omega.advance(1), 0, 1)
                assert np.array_equal(maps[0], emit(omega).T)

                count, first = 270, omega.index
                for maps, ls in coc.step_blocks(omega, 0, count):
                    assert (first // 256) == ((first + len(maps) - 1) // 256)
                    assert len(ls) == len(maps) and not ls.any()
                    for t, M in enumerate(maps):
                        assert np.array_equal(M, emit(omega.advance(first - omega.index + t)))
                    first += len(maps)
                assert first == omega.index + count
                adjoint = np.concatenate([maps for maps, _ in coc.dual().step_blocks(omega, 0, count)])
                assert adjoint.shape == (count, 3, 3)
                for t, M in enumerate(adjoint):
                    assert np.array_equal(M, emit(omega.advance(-1 - t)).T)
                # the adjoint's steps before omega are the primal's from it,
                # latest chunk first and in step order within a chunk
                chunks = [maps for maps, _ in coc.dual().step_blocks(omega, -count, 0, backward=True)]
                adjoint = np.concatenate(chunks[::-1])
                for t, M in enumerate(adjoint):
                    assert np.array_equal(M, emit(omega.advance(count - 1 - t)).T)

    def test_ode_chunks_match_propagate(self):
        # every flow map is exactly one propagate of the identity from its
        # base point, stepped one dt at a time; chunks hold at most
        # BLOCK_CELLS maps, backward reads come latest chunk first and in
        # step order within a chunk.  On unit cells, dt = 0.3 makes some
        # steps straddle a cell edge and dt = 0.1 puts cell edges on step
        # ends within rounding; a constant field is one piece per chunk; a
        # type-K field reads its cells through the flip; a callable field
        # with edges inside steps keeps DOP853; so does the torus field, whose
        # maps from the seed-0 base point take from a few to 344 DOP853 steps
        # (a stiff pass near the corner), all of a chunk's in one batch
        count = 270
        cooperative = cooperative_sampler(3, -1.0, 1.0, 0.0, 1.0)
        flip = np.array([1.0, -1.0, -1.0])
        cases = [
            ("cells, dt 0.3", PiecewiseConstantOdeModel(3, cooperative), 0.3, 1e-10),
            ("cells, dt 0.1", PiecewiseConstantOdeModel(3, cooperative), 0.1, 1e-10),
            ("constant", ConstantOdeModel([[-1.0, 0.5, 0.2], [0.3, 0.1, 0.0], [0.4, 0.6, -0.5]]), 0.1, 1e-10),
            ("type-K", TypeKFlipModel(PiecewiseConstantOdeModel(
                3, lambda rng: flip[:, None] * cooperative(rng) * flip), 1), 0.1, 1e-10),
            ("callable", CallableOdeModel(3, half_cell_field, half_cell_edges), 0.3, 1e-6),
            ("torus", TorusExampleModel(), 0.25, 1e-6),
        ]
        for case, model, dt, rtol in cases:
            n, omega = model.n, TorusRotation().initial(0) if case == "torus" else cont_state(6)
            coc = OdeCocycle(model, dt=dt, rtol=rtol)
            after, before = [omega], [omega]  # the base points from omega on, and before it
            for _ in range(count):
                after.append(after[-1].advance(coc.dt))
                before.append(before[-1].advance(-coc.dt))

            def flow(state):
                return propagate(model, state, np.eye(n), coc.dt, rtol=coc.rtol)

            def read(chunks, backward=False):
                chunks = list(chunks)
                assert all(0 < len(maps) <= BLOCK_CELLS and len(ls) == len(maps) for maps, ls in chunks)
                chunks = chunks[::-1] if backward else chunks
                maps, ls = np.concatenate([m for m, _ in chunks]), np.concatenate([l for _, l in chunks])
                assert maps.shape == (count, n, n) and ls.shape == (count,)
                return maps, ls

            for (maps, ls), states in [(read(coc.step_blocks(omega, 0, count)), after[:count]),
                                       (read(coc.step_blocks(omega, -count, 0, backward=True), True),
                                        before[count:0:-1])]:
                for M, l, state in zip(maps, ls, states, strict=True):
                    F, lf = flow(state)
                    assert np.array_equal(M, F) and l == lf, case
            # the adjoint's steps from omega are the primal's before it, and
            # the other way round, each transposed
            dual = coc.dual()
            for (maps, ls), states in [(read(dual.step_blocks(omega, 0, count)), before[1:count + 1]),
                                       (read(dual.step_blocks(omega, -count, 0, backward=True), True),
                                        after[count - 1::-1])]:
                for M, l, state in zip(maps, ls, states, strict=True):
                    F, lf = flow(state)
                    assert np.array_equal(M, F.T) and l == lf, case

    def test_ode_chunks_are_pure(self):
        # a chunk of a read is odes.flow_maps alone from the chunk's first
        # base point, on a fresh model: it depends on its steps and on no
        # chunk read before it, forward or backward.  The read [-300, 300)
        # is cut at -300, -44 and 212; from both starts at both dt those
        # cuts fall inside unit cells, so a cell straddles every cut
        cooperative = cooperative_sampler(3, -1.0, 1.0, 0.0, 1.0)
        flip = np.array([1.0, -1.0, -1.0])
        models = {
            "sampler": lambda: PiecewiseConstantOdeModel(3, cooperative),
            "block": lambda: PiecewiseUniformOdeModel(3, -1.0, 1.0, 0.0, 1.0),
            "type-K": lambda: TypeKFlipModel(PiecewiseConstantOdeModel(
                3, lambda rng: flip[:, None] * cooperative(rng) * flip), 1),
        }
        lo, hi = -300, 300
        cuts = range(lo, hi, BLOCK_CELLS)
        for (case, make), start, dt in product(models.items(), (0.0, 0.37), (0.1, 0.3)):
            omega = cont_state(6).advance(start)
            firsts = [advance_steps(omega, a, dt) for a in cuts]
            assert all(0.01 < (f.pos + f.pos_lo) % 1.0 < 0.99 for f in firsts[1:]), (case, start, dt)
            alone = [next(odes.flow_maps(make(), [(first, min(BLOCK_CELLS, hi - a), 1e-10)], dt))
                     for a, first in zip(cuts, firsts)]
            coc = OdeCocycle(make(), dt=dt)
            for backward in (False, True):
                chunks = list(coc.step_blocks(omega, lo, hi, backward))
                assert len(chunks) == len(alone)
                for (maps, ls), (maps_a, ls_a) in zip(chunks[::-1] if backward else chunks, alone):
                    assert np.array_equal(maps, maps_a) and np.array_equal(ls, ls_a), (case, start, dt, backward)
        # the torus field propagates every step, so its read is one DOP853
        # stream over the three chunks, in which the members of a chunk step
        # alongside those of the next: each chunk is still its window alone
        torus, omega, dt = TorusExampleModel(), TorusRotation().initial(3), 0.25
        alone = [next(odes.flow_maps(torus, [(advance_steps(omega, a, dt), min(BLOCK_CELLS, hi - a), 1e-6)], dt))
                 for a in cuts]
        coc = OdeCocycle(torus, dt=dt, rtol=1e-6)
        for backward in (False, True):
            chunks = list(coc.step_blocks(omega, lo, hi, backward))
            assert len(chunks) == len(alone) == 3
            for (maps, ls), (maps_a, ls_a) in zip(chunks[::-1] if backward else chunks, alone):
                assert np.array_equal(maps, maps_a) and np.array_equal(ls, ls_a), ("torus", backward)

    def test_ode_stream_enters_at_the_first_propagated_chunk(self, monkeypatch):
        # a field constant but on [30, 31) and [80, 81), where it is smooth:
        # the read [0, 1280) at dt = 0.1 propagates steps only in chunks 1
        # and 3 of its five, so chunks without a propagated step come before
        # the first chunk that has one, between, and after.  A read enters
        # one DOP853 stream, at chunk 1 forward and chunk 3 backward, and
        # draws into it every chunk from there on; each chunk is its window
        # alone, and each propagated map is propagate's
        A0 = np.array([[-1.0, 0.5], [0.3, -0.8]])

        def smooth(x):
            return 30.0 <= x < 31.0 or 80.0 <= x < 81.0

        def field(state, t):
            x = state.pos + state.pos_lo + t
            return A0 + math.sin(x) * np.array([[0.5, 0.2], [0.1, -0.3]]) if smooth(x) else A0

        def breaks(state, t0, t1):
            ts = np.array([30.0, 31.0, 80.0, 81.0]) - (state.pos + state.pos_lo)
            return ts[(ts > t0) & (ts < t1)]

        class Patchy(CallableOdeModel):
            def piece_matrix(self, state, t0, t1):
                return None if smooth(state.pos + state.pos_lo + 0.5 * (t0 + t1)) else A0

        model, omega, dt, count = Patchy(2, field, breaks), cont_state(7), 0.1, 1280
        cuts = range(0, count, BLOCK_CELLS)
        alone = [next(odes.flow_maps(model, [(advance_steps(omega, a, dt), BLOCK_CELLS, 1e-10)], dt)) for a in cuts]
        streams, drawn, dop853 = [], [], odes._dop853

        def counted(model, batches, ahead):
            streams.append(len(drawn))

            def draws():
                for batch in batches:
                    drawn.append(len(batch[0]))
                    yield batch
            return dop853(model, draws(), ahead)

        monkeypatch.setattr(odes, "_dop853", counted)
        coc = OdeCocycle(model, dt=dt)
        for backward in (False, True):
            streams.clear()
            drawn.clear()
            chunks = list(coc.step_blocks(omega, 0, count, backward))
            assert streams == [0] and [n > 0 for n in drawn] == [True, False, True, False], (backward, drawn)
            for (maps, ls), (maps_a, ls_a) in zip(chunks[::-1] if backward else chunks, alone, strict=True):
                assert np.array_equal(maps, maps_a) and np.array_equal(ls, ls_a), backward
        monkeypatch.undo()
        for j in (300, 305, 309, 800, 805):
            M, log_scale = propagate(model, advance_steps(omega, j, dt), np.eye(2), dt)
            chunk = alone[j // BLOCK_CELLS]
            assert np.array_equal(chunk[0][j % BLOCK_CELLS], M) and chunk[1][j % BLOCK_CELLS] == log_scale, j


class TestCocycleProtocol:
    def test_estimators_read_only_the_map_stream(self):
        # a cocycle with no more than n, dt, cone_tol, step_blocks, replay
        # and advance runs every estimator, bit for bit as the one it wraps
        coc, omega = iid_positive_cocycle(), disc_state(5)
        bare = BareCocycle(coc)
        probes = np.column_stack([np.ones(3), np.eye(3)[0]])
        runs = [
            lambda c: forward_floquet(c, omega, probes, 300, record_every=7),
            lambda c: oseledets_qr(c, omega, 300),
            lambda c: separation_estimate(c, omega, 300, warmup=40, proj_samples=10),
            lambda c: warmup_direction(c, omega, 60),
            lambda c: pullback_convergence(c, omega, 30),
        ]
        for run in runs:
            assert same(run(bare), run(coc))
        assert same(warmup_direction(BareCocycle(coc.dual()), omega, 60), warmup_direction(coc.dual(), omega, 60))

    @pytest.mark.parametrize("driver", [IidShift("continuous"), TorusRotation()], ids=["iid", "torus"])
    def test_advance_is_exact(self, driver):
        # step k has one base point: advance(omega, k) is bit for bit where
        # k single advances by +-dt reach, on either side of omega, from a
        # start with and one without a rounding error of its own
        def bits(state):
            pair = (state.pos, state.pos_lo) if isinstance(driver, IidShift) else (state.elapsed, state.elapsed_lo)
            return [x.hex() for x in pair]

        for omega in (driver.initial(3), driver.initial(3).advance(0.1).advance(0.37)):
            for dt in (0.1, 0.3, 0.25, 1 / 3, 0.07):
                coc = OdeCocycle(ConstantOdeModel([[0.0]]), dt=dt)
                for sign in (1, -1):
                    walked = omega
                    for k in range(1, 3001):
                        walked = walked.advance(sign * dt)
                        assert bits(coc.advance(omega, sign * k)) == bits(walked), (dt, sign * k)
                        assert bits(coc.dual().advance(omega, -sign * k)) == bits(walked), (dt, sign * k)


class TestBackwardOrbit:
    def test_constant_all_ones_fixed_direction(self):
        # v 1^T maps every positive vector onto v: the uniform probe starts
        # off v / |v| and reaches it after one step
        v = np.array([1.0, 2.0, 3.0])
        coc = MatrixCocycle(ConstantMatrixModel(np.outer(v, np.ones(3))))
        orbit, _ = pullback_convergence(coc, disc_state(), 10)
        e = v / np.linalg.norm(v)
        assert not np.allclose(orbit.directions[0], e, atol=1e-15)
        for d in orbit.directions[1:]:
            assert np.allclose(d, e, atol=1e-15)

    def test_depth_doubling_convergence(self):
        coc = iid_positive_cocycle(2, 0.8, 1.25)
        orbit, dist = pullback_convergence(coc, disc_state(4), 20)
        assert dist <= 1e-8

    def test_cocycle_identity_of_records(self):
        coc = iid_positive_cocycle(3)
        omega = disc_state(9)
        orbit, _ = pullback_convergence(coc, omega, 15)
        for j, n in enumerate(orbit.ns[:-1]):
            S = coc.model.emit(omega.advance(n))
            lhs = S @ orbit.directions[j]
            rhs = orbit.directions[j + 1] * math.exp(orbit.step_log_rho[j])
            assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(lhs)

    def test_entire_orbit_normalization(self):
        coc = iid_positive_cocycle(3)
        orbit, _ = pullback_convergence(coc, disc_state(2), 12)
        assert orbit.log_norms[-1] == 0.0
        v_last = math.exp(orbit.log_norms[-1]) * orbit.directions[-1]
        assert abs(np.linalg.norm(v_last) - 1.0) < 1e-12


class TestDualFloquet:
    def test_symmetric_self_dual(self):
        S = np.array([[2.0, 1.0], [1.0, 1.0]])
        coc = MatrixCocycle(ConstantMatrixModel(S))
        w = warmup_direction(coc, disc_state(), 60)
        ws = warmup_direction(coc.dual(), disc_state(), 60)
        assert np.linalg.norm(w - ws) < 1e-12
        vals, vecs = np.linalg.eigh(S)
        top = np.abs(vecs[:, -1])
        assert np.linalg.norm(ws - top) < 1e-10

    def test_asymmetric_left_eigenvector(self):
        S = np.array([[2.0, 1.0], [0.0, 1.0]])
        coc = MatrixCocycle(ConstantMatrixModel(S))
        ws = warmup_direction(coc.dual(), disc_state(), 80)
        assert np.linalg.norm(ws - np.array([1.0, 1.0]) / np.sqrt(2)) < 1e-10
        w = warmup_direction(coc, disc_state(), 80)
        assert np.linalg.norm(w - np.array([1.0, 0.0])) < 1e-10

    def test_torus_flow_dual(self):
        coc = OdeCocycle(TorusExampleModel(), dt=0.25, rtol=1e-8)
        ws = warmup_direction(coc.dual(), TorusRotation().initial(1), 48)
        assert np.linalg.norm(ws - np.array([1.0, 1.0]) / np.sqrt(2)) < 1e-8


@pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name, run", [
    ("forward_floquet", lambda coc, h: forward_floquet(coc, disc_state(), np.ones(3), h)),
    ("separation_estimate", lambda coc, h: separation_estimate(coc, disc_state(), h)),
    ("oseledets_qr", lambda coc, h: oseledets_qr(coc, disc_state(), h)),
], ids=["forward_floquet", "separation_estimate", "oseledets_qr"])
def test_non_finite_horizon_rejected(name, run, horizon):
    with pytest.raises(ValueError, match=f"^{name} requires a finite horizon, got horizon = {horizon}$"):
        run(iid_positive_cocycle(), horizon)


@pytest.mark.parametrize("call, message", [
    (lambda coc: forward_floquet(coc, disc_state(), np.ones(3), 20, record_every=-2),
     "an integer >= 0, got record_every = -2"),
    (lambda coc: separation_estimate(coc, disc_state(), 20, warmup=-5), "an integer >= 0, got warmup = -5"),
    (lambda coc: separation_estimate(coc, disc_state(), 20, proj_samples=-3),
     "an integer >= 0, got proj_samples = -3"),
], ids=["record_every", "warmup", "proj_samples"])
def test_negative_count_rejected(call, message):
    # each used to fail inside the loop (a reshape, an unbound frame) or,
    # for proj_samples, to sample every step
    with pytest.raises(ValueError, match=f"must be {message}$"):
        call(iid_positive_cocycle())


@pytest.mark.parametrize("u0, message", [
    ([math.nan, 1.0, 1.0], r"entry \[0\] is nan"),
    (np.column_stack([np.ones(3), [1.0, 1.0, math.inf]]), r"entry \[2, 1\] is inf"),
], ids=["probe", "block"])
def test_nonfinite_probe_rejected(u0, message):
    # used to warn "invalid value encountered in divide", then report
    # "forward iterate not finite after step 0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^u0 must be finite: {message}$"):
            forward_floquet(iid_positive_cocycle(), disc_state(), u0, 20)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_probe_far_from_unit_norm(scale):
    # its 2-norm used to overflow (a warning, then lambda1 = -inf) or
    # underflow ("u0 must be nonzero"); a block's other column is untouched
    coc = MatrixCocycle(UniformEntriesModel(2, 0.5, 2.0))
    unit = forward_floquet(coc, disc_state(), [1.0, 1.0], 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far, other = forward_floquet(coc, disc_state(), [[scale, 0.3], [scale, 0.4]], 5)
    assert far.lambda1 == unit.lambda1 and np.array_equal(far.w, unit.w)
    assert other.lambda1 == forward_floquet(coc, disc_state(), [0.3, 0.4], 5).lambda1


@pytest.mark.parametrize("call, message", [
    (lambda coc: warmup_direction(coc, disc_state(), 2.7), ">= 0, got depth = 2.7"),
    (lambda coc: warmup_direction(coc, disc_state(), -3), ">= 0, got depth = -3"),
    (lambda coc: warmup_direction(coc, disc_state(), True), ">= 0, got depth = True"),
    (lambda coc: pullback_convergence(coc, disc_state(), 2.7), ">= 1, got depth = 2.7"),
    (lambda coc: pullback_convergence(coc, disc_state(), 0), ">= 1, got depth = 0"),
], ids=["warmup-fraction", "warmup-negative", "warmup-bool", "pullback-fraction", "pullback-zero"])
def test_pullback_depth_rejected(call, message):
    # a fractional depth used to start int(depth) steps back and walk
    # round(depth) steps, or to run at int(depth)
    with pytest.raises(ValueError, match=f"^depth must be an integer {message}$"):
        call(iid_positive_cocycle())


@pytest.mark.parametrize("call, name, value", [
    (lambda coc: separation_estimate(coc, disc_state(), 20, warmup=2.7), "warmup", 2.7),
    (lambda coc: separation_estimate(coc, disc_state(), 20, warmup=True), "warmup", True),
    (lambda coc: separation_estimate(coc, disc_state(), 20, proj_samples=2.5), "proj_samples", 2.5),
    (lambda coc: separation_estimate(coc, disc_state(), 20, proj_samples=np.float64(4.0)), "proj_samples",
     np.float64(4.0)),
    (lambda coc: forward_floquet(coc, disc_state(), np.ones(3), 20, record_every=2.5), "record_every", 2.5),
], ids=["warmup-fraction", "warmup-bool", "proj_samples-fraction", "proj_samples-float", "record_every-fraction"])
def test_fractional_count_rejected(call, name, value):
    # a fractional warm-up used to run at its integer part, a fractional
    # proj_samples to sample at multiples of a float step count and a
    # fractional record_every to fail with a TypeError; the warm-up is named
    # as separation's argument, not as the warm-up's depth
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= 0, got {name} = {value!r}")):
        call(iid_positive_cocycle())


def test_annihilated_warmup_raises():
    # the zero image used to come back as the direction, which estimate
    # then rejected as a zero u0: a config error
    coc = MatrixCocycle(ConstantMatrixModel(np.zeros((2, 2))))
    with pytest.raises(EstimationError, match="warm-up probe annihilated"):
        warmup_direction(coc, disc_state(), 5)


def test_numpy_integer_depth():
    coc = iid_positive_cocycle()
    assert np.array_equal(warmup_direction(coc, disc_state(), np.int64(7)), warmup_direction(coc, disc_state(), 7))


class TestSeparation:
    @pytest.mark.parametrize("proj_samples", [0, 4])
    def test_one_dimension_rejected(self, proj_samples):
        # with no projection samples it used to report sigma = +inf, and with
        # some to fail on math.log(0) of the empty complement's projection
        coc = MatrixCocycle(ConstantMatrixModel([[2.0]]))
        with pytest.raises(ValueError, match=r"^separation needs N >= 2, got N = 1: the invariant complement "
                                             r"of a one-dimensional system is \{0\}$"):
            separation_estimate(coc, disc_state(), 20, proj_samples=proj_samples)

    def test_symmetric_flow_rates(self):
        coc = OdeCocycle(ConstantOdeModel([[0.0, 1.0], [1.0, 0.0]]), dt=0.25, rtol=1e-9)
        est = separation_estimate(coc, cont_state(), 20.0, warmup=80)
        assert abs(est.lambda1_hat - 1.0) < 1e-7
        assert abs(est.lambda2_hat + 1.0) < 1e-7
        assert abs(est.sigma_hat - 2.0) < 1e-7

    def test_singular_all_ones_flags(self):
        coc = MatrixCocycle(ConstantMatrixModel(np.ones((3, 3))))
        est = separation_estimate(coc, disc_state(), 20, warmup=30)
        assert est.sigma_hat == math.inf and est.lambda2_hat == -math.inf
        assert abs(est.lambda1_hat - np.log(3.0)) < 1e-12

    def test_consistency_identity(self):
        coc = iid_positive_cocycle()
        est = separation_estimate(coc, disc_state(5), 500, warmup=50)
        assert abs(est.sigma_hat - (est.lambda1_hat - est.lambda2_hat)) < 1e-12

    @pytest.mark.parametrize("warmup, t", [(0, 98), (50, 148)])
    def test_dual_walk_leaves_cone(self, warmup, t):
        # the principal orbit of [[2, -0.5], [0, 1]] stays in the cone, while
        # the dual orbit leaves it at its second step from the horizon (or
        # from the end of the warm-up past it), named by its primal time; the
        # dual walk used to run unchecked and report w_star = (0.894, -0.447)
        coc = MatrixCocycle(ConstantMatrixModel([[2.0, -0.5], [0.0, 1.0]]))
        assert forward_floquet(coc, disc_state(), warmup_direction(coc, disc_state(), warmup), 100).w.min() > 0
        with pytest.raises(PositivityViolation, match=f"left the cone at t = {t}:") as exc:
            separation_estimate(coc, disc_state(), 100, warmup=warmup)
        assert exc.value.witness[:2] == (t, 1)

    @staticmethod
    def assert_forward_floquet_track(coc, omega, steps, warmup, proj_samples):
        # the principal sweep is forward_floquet's from the warmed
        # direction, bit for bit, and the projection is sampled at t = 0
        # and at the rows of that track, recorded at the sample stride
        horizon = steps * coc.dt
        est = separation_estimate(coc, omega, horizon, warmup=warmup, proj_samples=proj_samples)
        every = max(1, steps // proj_samples) if proj_samples else 0
        track = forward_floquet(coc, omega, warmup_direction(coc, omega, warmup), horizon, record_every=every)
        assert est.lambda1_hat == track.lambda1 and np.array_equal(est.w, track.w)
        # and the dual walk is the dual's, from the horizon, bit for bit
        dual, omega_T = coc.dual(), coc.advance(omega, steps)
        assert np.array_equal(est.w_star, forward_floquet(dual, omega_T, warmup_direction(dual, omega_T, warmup),
                                                          horizon).w)
        assert [t for t, _ in est.projection_norm_history] == ([0.0, *track.times.tolist()] if every else [])
        assert 0.0 < est.sigma_hat < math.inf
        assert abs(est.sigma_hat - (est.lambda1_hat - est.lambda2_hat)) < 1e-12

    def test_no_warmup(self):
        # with no warm-up the probe is the dual direction at the horizon;
        # also with one, on uniform entries, the piecewise-constant flow
        # (257 steps cross the stored replay's chunk cut) and the torus
        cases = [(iid_positive_cocycle(3), disc_state(5), 50), (iid_positive_cocycle(24), disc_state(5), 300),
                 (OdeCocycle(PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0)), dt=0.1),
                  cont_state(10), BLOCK_CELLS + 1),
                 (OdeCocycle(TorusExampleModel(), dt=0.25, rtol=1e-6), TorusRotation().initial(0), 40)]
        for coc, omega, steps in cases:
            for warmup, proj_samples in ((0, 0), (50, 7)):
                self.assert_forward_floquet_track(coc, omega, steps, warmup, proj_samples)

    @pytest.mark.parametrize("primal, omega, steps", [
        pytest.param(iid_positive_cocycle(4), disc_state(5), 50, id="matrix"),
        pytest.param(OdeCocycle(PiecewiseConstantOdeModel(
            4, cooperative_sampler(4, -1.0, 1.0, 0.0, 1.0)), dt=0.1), cont_state(5), BLOCK_CELLS + 1, id="ode"),
    ])
    def test_adjoint_no_warmup(self, primal, omega, steps):
        # the adjoint's backward sweep reads its primal's maps forward; its
        # principal direction is the probe tracked as forward_floquet tracks it
        for warmup, proj_samples in ((0, 0), (50, 7)):
            self.assert_forward_floquet_track(primal.dual(), omega, steps, warmup, proj_samples)

    @staticmethod
    def assert_restricted_norm(coc, omega, T, warmup):
        # lambda2 * T is the log of the restricted norm, |P|_2 of the
        # explicit product P.  The sweep and the reference run the same
        # products on differently scaled frames.  Each step's product M W
        # (sums of N terms) errs by at most N u |M|_F |W|_F relative to
        # |M W|_F, that is N u rho_k, and the re-anchor and the rescaling
        # add about 2u: (N + 2) u rho_k a step, on either side, to first
        # order, where errors in the frame's dominant direction carry over
        # as relative errors.  Forming lambda1, sigma, lambda2 and
        # lambda2 * T from the log sums rounds at most 4 times, each within
        # u (|log growth| + |log restricted|).
        est = separation_estimate(coc, omega, T, warmup=warmup)
        P, rho = restricted_product(coc, omega, T, warmup)
        ref = math.log(np.linalg.norm(P, 2))
        u = np.finfo(float).eps / 2
        bound = 2 * (coc.n + 2) * u * rho + 4 * u * (abs(est.lambda1_hat * T) + abs(ref))
        assert abs(est.lambda2_hat * T - ref) <= bound
        return est, P

    def test_restricted_norm_matches_explicit_product(self):
        # a short horizon keeps the unscaled product in range and its
        # frame far from rank one: |P|_F exceeds |P|_2 by about 1% here,
        # so closing the sweep with a Frobenius norm instead fails
        n, T = 4, 10
        coc = iid_positive_cocycle(n)
        _, P = self.assert_restricted_norm(coc, disc_state(0), T, warmup=10)
        assert math.log(np.linalg.norm(P) / np.linalg.norm(P, 2)) > 1e-3

    def test_rank_deficient_map_keeps_complement(self):
        # A has rank 2; its kernel always lies in the dual-null plane (z^T k
        # is z'^T A k = 0), so each A-step kills one complement direction
        # and leaves the other: lambda3 = -inf, lambda2 finite.  The frame
        # is rank one from the first A on, and no step may read that as an
        # annihilated complement
        A = np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 1.0], [3.0, 3.0, 2.0]])  # row 3 = row 1 + row 2
        B = np.array([[2.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 2.0]])
        coc = MatrixCocycle(IidChoiceModel([A, B]))
        self.assert_restricted_norm(coc, disc_state(3), 30, warmup=20)
        est = separation_estimate(coc, disc_state(3), 200, warmup=20)
        # the per-step QR sweep this replaced gave 1.3757267324918556
        assert abs(est.sigma_hat - 1.3757267324918556) <= 1e-13
        assert abs(est.sigma_hat - (est.lambda1_hat - est.lambda2_hat)) < 1e-12

    def test_no_positive_vector_in_complement(self):
        # nonzero vectors paired to zero against a strictly positive functional
        # must carry coordinates of both signs: the hyperplane meets the cone
        # only at the origin
        coc = iid_positive_cocycle()
        est = separation_estimate(coc, disc_state(6), 50, warmup=50)
        rng = np.random.default_rng(0)
        B = est.f1_basis
        for c in B.T:
            assert c.min() < 0 < c.max()
        for _ in range(100):
            v = B @ rng.normal(size=B.shape[1])
            if np.linalg.norm(v) < 1e-12:
                continue
            assert v.min() < 0 < v.max()

    def test_f1_pairing_invariance(self):
        # vectors paired to zero against the dual direction stay so under the flow
        coc = iid_positive_cocycle(3, 0.5, 2.0)
        omega = disc_state(13)
        depth = 100
        ws0 = warmup_direction(coc.dual(), omega, depth)
        rng = np.random.default_rng(1)
        horizon = 10
        for _ in range(10):
            u = rng.normal(size=3)
            u -= (u @ ws0) * ws0
            state, v = omega, u.copy()
            for k in range(horizon):
                v = coc.model.emit(state) @ v
                state = state.advance(1)
            ws_t = warmup_direction(coc.dual(), state, depth)
            assert abs(v @ ws_t) <= 1e-6 * np.linalg.norm(v)

    def test_stream_holds_one_chunk(self):
        # each chunk is freed before the next is emitted, on both sides of
        # the stream: a sweep through the steps in either direction, and the
        # forward and QR loops, peak near one chunk of BLOCK_CELLS maps; a
        # chunk that outlived its last step would make it two
        n, T = 20, 3000
        coc, omega = iid_positive_cocycle(n), disc_state(1)

        def sweep(backward):
            for _ in _steps(coc.step_blocks(omega, 0, T, backward)):
                pass

        runs = [lambda: sweep(False), lambda: sweep(True),
                lambda: forward_floquet(coc, omega, np.ones(n), T), lambda: oseledets_qr(coc, omega, T)]
        chunk = BLOCK_CELLS * n * n * 8
        for run in runs:
            run()  # lazy imports of a first run
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert chunk < peak < 1.25 * chunk

    def test_peak_memory_linear_in_steps(self):
        # nothing is kept per step; the traced peak is at most
        # - three chunks of BLOCK_CELLS maps: the one a walk reads and, on
        #   the dual walk, the complement frame's projected maps of it
        #   (P_k M_k^T, formed at chunk close) with the walk's iterates and
        #   the maps' row products (2 BLOCK_CELLS vectors), or the next
        #   chunk being emitted and room for the draw's temporaries;
        # - the frame's N x N arrays (frame, image and their temporaries:
        #   fewer than 16 at once);
        # - a fixed set of small Python objects (generator frames, floats,
        #   the result record): under 64 KiB.
        # Two chunks and about 0.2 MB were read here (1.87 MB of 2.57 MB).
        # The T N^2 store this replaces would hold T + 2 * warmup maps,
        # about 64 MB here: more than 10 times the bound.  A quarter of the
        # horizon peaks within one chunk of it.
        n, T, warmup = 20, 20_000, 5
        coc = iid_positive_cocycle(n)
        separation_estimate(coc, disc_state(2), 10, warmup=warmup)  # lazy imports of a first run
        peaks = []
        for steps in (T // 4, T):
            tracemalloc.start()
            try:
                separation_estimate(coc, disc_state(2), steps, warmup=warmup)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chunk = BLOCK_CELLS * n * n * 8
        frame = 16 * n * n * 8
        bound = 3 * chunk + frame + 64 * 1024
        assert peaks[1] <= bound
        assert abs(peaks[1] - peaks[0]) <= chunk
        assert 10 * bound < (T + 2 * warmup) * n * n * 8

    def test_ode_peak_memory_is_the_store_and_two_chunks(self):
        # an ODE separation stores its T + 2 * warmup flow maps, (N^2 + 1) 8
        # bytes a step, filled by one DOP853 stream that holds at most two
        # chunks in flight: a chunk's maps and, per member, a base point, a
        # chain of pieces and its results, under 1 KiB a member on the
        # torus.  So beyond the store the traced peak does not grow with T
        # by more than one chunk's worth.  Measured here: 0.81 / 0.95 MB
        # beyond the store at 200 / 1200 steps; walking every chunk before
        # the stream steps, 0.81 / 1.21 MB
        n, warmup = 2, 50
        coc, omega = OdeCocycle(TorusExampleModel(), dt=0.25, rtol=1e-6), TorusRotation().initial(0)
        separation_estimate(coc, omega, 2.5, warmup=5)  # lazy imports of a first run
        extra = []
        for steps in (200, 1200):
            tracemalloc.start()
            try:
                separation_estimate(coc, omega, steps * coc.dt, warmup=warmup)
                extra.append(tracemalloc.get_traced_memory()[1] - (steps + 2 * warmup) * (n * n + 1) * 8)
            finally:
                tracemalloc.stop()
        assert abs(extra[1] - extra[0]) <= BLOCK_CELLS * 1024
        assert max(extra) <= 6 * BLOCK_CELLS * 1024

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 600), st.integers(0, 60), st.integers(0, 10**6))
    def test_streamed_replay_matches_stored(self, n, T, warmup, seed):
        # re-emitted maps are the stored maps bit for bit, so both replays
        # give the same estimate to the last bit
        model = UniformEntriesModel(n, 0.5, 2.0)
        a, b = (separation_estimate(coc, disc_state(seed), T, warmup=warmup, proj_samples=7)
                for coc in (MatrixCocycle(model), StoredMatrixCocycle(model)))
        assert (a.lambda1_hat, a.lambda2_hat, a.sigma_hat) == (b.lambda1_hat, b.lambda2_hat, b.sigma_hat)
        assert a.projection_norm_history == b.projection_norm_history
        for field in ("w", "w_star", "f1_basis"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_temperedness_slope(self):
        coc = iid_positive_cocycle()
        est = separation_estimate(coc, disc_state(21), 1000, warmup=50, proj_samples=100)
        ts = np.array([t for t, _ in est.projection_norm_history])
        vals = np.array([v for _, v in est.projection_norm_history])
        sel = ts >= ts.max() / 2
        slope = np.polyfit(ts[sel], vals[sel], 1)[0]
        assert abs(slope) <= 1e-2

    def test_initial_condition_forgetting(self):
        # decay rate of the distance between two renormalized trajectories is
        # at least 0.8 of the (independently estimated) QR spectral gap
        coc = iid_positive_cocycle()
        omega = disc_state(31)
        exps = oseledets_qr(coc, omega, 2000)
        sigma = exps[0] - exps[1]
        rng = np.random.default_rng(3)
        u = rng.uniform(0.1, 1.0, 3)
        v = rng.uniform(0.1, 1.0, 3)
        dists, state = [], omega
        uu, vv = u / np.linalg.norm(u), v / np.linalg.norm(v)
        for k in range(40):
            S = coc.model.emit(state)
            uu = S @ uu
            uu /= np.linalg.norm(uu)
            vv = S @ vv
            vv /= np.linalg.norm(vv)
            state = state.advance(1)
            dists.append(np.linalg.norm(uu - vv))
        dists = np.array(dists)
        sel = (dists > 1e-13)
        ts = np.arange(1, 41)[sel][:25]
        rate = -np.polyfit(ts, np.log(dists[sel][:25]), 1)[0]
        assert rate >= 0.8 * sigma


class TestScalarTimesP:
    # matrices c_s P, with P the positive 3 x 3 of criterion 05 and c = (0.3,
    # 2.5), drawn i.i.d. (iid-list) or by a two-state chain (markov-list):
    # the product over [0, T) is (prod c_k) P^T, so at a finite horizon
    # - lambda1 along P's right Perron vector v is (sum log c_k) / T + log rho;
    # - sigma is (T log rho - log |P^T on F, applied to B0|_2) / T, F the
    #   hyperplane that P's left Perron vector v* annihilates and B0 an
    #   orthonormal basis of it, whatever the seed, the driver or c;
    # - w is v and w_star is v*;
    # - the dual walk from omega_T back to omega grows at that lambda1
    #   along v*, the steps' maps being the c_k P^T;
    # - each QR exponent is (sum log c_k) / T plus that of the constant
    #   cocycle P over the same steps.
    P = np.array([[2.0, 1.0, 0.5], [0.5, 1.5, 1.0], [1.0, 0.5, 2.0]])
    C = (0.3, 2.5)
    T = 4000
    WARMUP = 50  # the default warm-up of estimate and separate
    DRIVERS = {"iid-list": {"kind": "iid-shift"},
               "markov-list": {"kind": "markov-shift", "transition": [[0.9, 0.1], [0.2, 0.8]]}}
    u = np.finfo(float).eps / 2

    @staticmethod
    def perron(P):
        vals, vecs = np.linalg.eig(P)
        i = int(np.argmax(vals.real))
        v = np.abs(vecs[:, i].real)
        return float(vals.real[i]), v / np.linalg.norm(v)

    @classmethod
    def case(cls, kind, seed):
        """The config, the model, the initial base point and (sum log c_k) / T
        of one case, the c_k read off the emitted maps, each one of the two
        c_s P."""
        P, T = cls.P, cls.T
        cfg = validate_config({"seed": seed, "driver": cls.DRIVERS[kind],
                               "model": {"kind": kind, "matrices": [(c * P).tolist() for c in cls.C]},
                               "estimator": {"horizon": T, "warmup": cls.WARMUP}})
        _, model = build_model(cfg)
        omega = build_driver(cfg).initial(seed)
        maps = np.concatenate(list(model.chunks(omega, T)))
        big = (maps == cls.C[1] * P).all(axis=(1, 2))
        assert (big | (maps == cls.C[0] * P).all(axis=(1, 2))).all()
        n_big = int(big.sum())
        assert 0 < n_big < T
        return cfg, model, omega, (n_big * math.log(cls.C[1]) + (T - n_big) * math.log(cls.C[0])) / T

    @classmethod
    def walk_bounds(cls, v_min):
        """The bounds on a renormalised walk of T steps along a Perron
        vector whose least entry is ``v_min``, warmed up from the uniform
        probe: (direction, lambda1).

        A walk step along a positive vector errs by at most (2N + 3) u
        relative (an N-term matrix-vector product and sum of squares of
        positive terms, a division), and an emitted c_s P by u in each
        entry, so the log growth lies within T (2N + 4) u of the product's;
        the T logs and their sequential sum round by at most u sum_k |S_k|
        <= u T^2 L, L the largest |log| of a step's growth.  log rho errs by
        N u kappa, kappa = 1 / (v . v*) its condition number (P^T's too);
        the closed form's sums by 4 u L.  The walk starts off the Perron
        vector by at most the direction bound, which moves the log growth by
        at most that over its least entry, as the orthant orders the orbits.
        A direction's error is at most the error of one step, (2N + 4) u,
        summed over the steps that contract it by q = |mu| / rho each, mu
        P's next eigenvalue; the closed-form vectors err by as much."""
        P, T, n, u = cls.P, cls.T, 3, cls.u
        rho, v = cls.perron(P)
        _, v_star = cls.perron(P.T)
        kappa = 1.0 / float(v @ v_star)
        q = sorted(abs(np.linalg.eigvals(P)))[-2] / rho
        tol_direction = 2 * (2 * n + 4) * u / (1 - q)
        L = max(abs(math.log(c * rho)) for c in cls.C)
        return tol_direction, u * ((2 * n + 4) + n * kappa + (T + 4) * L) + tol_direction / v_min / T

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["iid-list", "markov-list"])
    def test_separate_matches_closed_form(self, kind, seed):
        P, T, n = self.P, self.T, 3
        _, model, omega, mean_log_c = self.case(kind, seed)
        est = separation_estimate(MatrixCocycle(model), omega, T, warmup=self.WARMUP)

        rho, v = self.perron(P)
        _, v_star = self.perron(P.T)
        # P on F in an orthonormal basis B0 of F: R = B0^T P B0, whose
        # eigenvalues mu, mu-bar are P's others; |R^T|_2 is |mu|^T times the
        # norm of S diag(e^(i T arg mu), e^(-i T arg mu)) S^-1, S R's eigenvectors
        B0 = _orth_complement(v_star)
        R = B0.T @ P @ B0
        mu, S = np.linalg.eig(R)
        assert abs(mu[0].imag) > 0 and mu[0] == mu[1].conjugate()
        log_restricted = T * math.log(abs(mu[0])) + math.log(
            np.linalg.norm((S * np.exp(1j * T * np.angle(mu))) @ np.linalg.inv(S), 2))
        lambda1 = mean_log_c + math.log(rho)
        sigma = (T * math.log(rho) - log_restricted) / T

        u = self.u
        tol_direction, tol_lambda1 = self.walk_bounds(v.min())
        assert abs(est.lambda1_hat - lambda1) <= tol_lambda1
        # The frame's step multiplies a relative error e of its map (N + 2
        # ulps of arithmetic, one of emission, and the tilt of the projection
        # by the dual direction's error, at most (2N + 4) u / (1 - q)) by at
        # most K = |P|_F / s_min(R), the step's cancellation factor; its logs
        # and their sum round as above, with L2 the largest |log| of c_s |mu|.
        # log |mu| errs by N u times its condition number |S| |S^-1|, and the
        # phase T arg mu by that times T, moving the norm's log by as much
        # times |S| |S^-1| again.
        q = abs(mu[0]) / rho
        K = np.linalg.norm(P) / np.linalg.svd(R, compute_uv=False)[-1]
        cond = np.linalg.cond(S)
        L2 = max(abs(math.log(c * abs(mu[0]))) for c in self.C)
        tol_sigma = tol_lambda1 + u * (K * (n + 3 + (2 * n + 4) / (1 - q)) + (T + 4) * L2 + n * cond * (1 + cond))
        assert abs(est.sigma_hat - sigma) <= tol_sigma
        assert np.linalg.norm(est.w - v) <= tol_direction
        assert np.linalg.norm(est.w_star - v_star) <= tol_direction

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["iid-list", "markov-list"])
    def test_estimate_matches_closed_form(self, kind, seed, tmp_path):
        # estimate walks the warmed probe as separate walks the principal
        # direction (with the raw probe as a second column, which rounds
        # each column as it rounds alone): the same bounds
        cfg, _, _, mean_log_c = self.case(kind, seed)
        res = run_command("estimate", cfg, out_dir=tmp_path)["results"]
        rho, v = self.perron(self.P)
        tol_direction, tol_lambda1 = self.walk_bounds(v.min())
        assert abs(res["lambda1"]["value"] - (mean_log_c + math.log(rho))) <= tol_lambda1
        assert np.linalg.norm(res["w"] - v) <= tol_direction

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["iid-list", "markov-list"])
    def test_dual_matches_closed_form(self, kind, seed):
        # the dual's principal walk from omega_T, warmed up past it: its maps
        # are the c_k P^T, whose Perron vector is v*
        _, model, omega, mean_log_c = self.case(kind, seed)
        dual = MatrixCocycle(model).dual()
        omega_T = omega.advance(self.T)
        track = forward_floquet(dual, omega_T, warmup_direction(dual, omega_T, self.WARMUP), self.T)
        rho, v_star = self.perron(self.P.T)
        tol_direction, tol_lambda1 = self.walk_bounds(v_star.min())
        assert abs(track.lambda1 - (mean_log_c + math.log(rho))) <= tol_lambda1
        assert np.linalg.norm(track.w - v_star) <= tol_direction

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["iid-list", "markov-list"])
    def test_oseledets_matches_closed_form(self, kind, seed):
        # In exact arithmetic both QR loops run the same frames, and each
        # step's R diagonal is c_k times the constant cocycle's, so each
        # exponent differs by (sum log c_k) / T exactly.  In floating point:
        # - Each exponent's T logs are summed step after step, rounding by
        #   at most u sum_k |S_k| <= u T^2 L / 2 in each run, L the largest
        #   |log r_ii| of a step, with s_min(c P) <= |r_ii| <= |c P|_2; the
        #   logs, the division by T and the closed form's sum round by at
        #   most 6 u L more.
        # - A computed step is the exact QR of M Q + E, |E|_F <= eps |M Q|_F,
        #   eps = (1 + N + 2 N (N + 4)) u: an ulp of emission, N of the
        #   product, N + 4 of each of the 2N Householder reflections that
        #   dgeqrf and dorgqr apply (a dot product, a scaling, an update).
        #   That is the exact step of M (I + F), |F|_2 <= e = eps K, K =
        #   |P|_F / s_min(P).  I + F scales the i-volume of the frame's
        #   first i columns by a factor within (1 +- e)^i, and tilts their
        #   span by at most i e.  The later steps carry a tilt delta of the
        #   i-vector y into the log i-volume by at most |delta| cond(W)^2 /
        #   g (first order), W the eigenvectors of the compound matrix of P
        #   of order i and g the weight of its dominant eigenvectors in the
        #   initial frame's i-vector e_1 ^ ... ^ e_i (a share that only
        #   grows along the walk).  So S_i, the sum of the first i
        #   exponents, moves by at most i e (1 + cond(W)^2 / g) in each run,
        #   and exponent i, S_i - S_(i-1), by the bounds of both sums.
        # The two runs sort their exponents alike, as they lie further
        # apart than the bounds.
        P, T, n, u = self.P, self.T, 3, self.u
        _, model, omega, mean_log_c = self.case(kind, seed)
        got = oseledets_qr(MatrixCocycle(model), omega, T)
        ref = oseledets_qr(MatrixCocycle(ConstantMatrixModel(P)), omega, T)

        def compound(A, i):
            sets = list(combinations(range(n), i))
            return np.array([[np.linalg.det(A[np.ix_(r, c)]) for c in sets] for r in sets])

        s = np.linalg.svd(P, compute_uv=False)
        L = max(abs(math.log(c * x)) for c in (*self.C, 1.0) for x in (s[0], s[-1]))
        e = (1 + n + 2 * n * (n + 4)) * u * np.linalg.norm(P) / s[-1]
        vals, V = np.linalg.eig(P)
        tol_sums = [0.0]
        for i in range(1, n + 1):
            W, lam = compound(V, i), np.array([np.prod(vals[list(c)]) for c in combinations(range(n), i)])
            z = np.linalg.solve(W, np.eye(len(W))[0])
            top = np.isclose(abs(lam), abs(lam).max(), rtol=1e-12)
            g = np.linalg.norm(z[top]) / np.linalg.norm(z)
            tol_sums.append(2 * i * e * (1 + np.linalg.cond(W) ** 2 / g))
        tols = [u * (T + 6) * L + tol_sums[i + 1] + tol_sums[i] for i in range(n)]
        for i, tol in enumerate(tols):
            assert abs(got[i] - (mean_log_c + ref[i])) <= tol, i
        assert np.diff(ref).max() < -2 * max(tols)


class TestOseledetsQr:
    def test_constant_diagonal(self):
        coc = MatrixCocycle(ConstantMatrixModel(np.diag([np.exp(2.0), np.exp(-1.0)])))
        exps = oseledets_qr(coc, disc_state(), 50)
        assert np.allclose(exps, [2.0, -1.0], atol=1e-12)

    def test_symmetric_flow(self):
        coc = OdeCocycle(ConstantOdeModel([[0.0, 1.0], [1.0, 0.0]]), dt=0.25, rtol=1e-9)
        exps = oseledets_qr(coc, cont_state(), 30.0)
        # the identity start frame costs an O(ln(sqrt 2)/T) alignment transient
        assert np.allclose(exps, [1.0, -1.0], atol=0.03)

    def test_cross_method_agreement(self):
        coc = iid_positive_cocycle()
        omega = disc_state(8)
        exps = oseledets_qr(coc, omega, 2000)
        w0 = warmup_direction(coc, omega, 50)
        track = forward_floquet(coc, omega, w0, 2000)
        assert abs(track.lambda1 - exps[0]) <= 0.01 * max(1.0, abs(exps[0]))

    def test_duality_of_exponents(self):
        coc = iid_positive_cocycle()
        omega = disc_state(14)
        horizon = 2000
        primal = oseledets_qr(coc, omega, horizon)
        # the adjoint over the matching window re-uses the same matrices transposed
        dual = oseledets_qr(coc.dual(), omega.advance(horizon), horizon)
        assert abs(primal[0] - dual[0]) < 2e-3


class BlockDiagonalModel(UniformEntriesModel):
    """Uniform entries with coordinate 0 its own block, so a probe on it and
    one on the others walk apart; the map at cell ``dead`` is 0 in block 0,
    or, with ``everything``, is 0 everywhere."""

    def __init__(self, n, dead, everything=False):
        super().__init__(n, 0.5, 2.0)
        self.dead, self.everything = dead, everything

    def emit_block(self, state, count):
        maps = super().emit_block(state, count)
        maps[:, 0, 1:] = maps[:, 1:, 0] = 0.0
        if 0 <= self.dead - state.index < count:
            maps[self.dead - state.index, :1 if not self.everything else None] = 0.0
        return maps


class PlantedModel(UniformEntriesModel):
    """Uniform entries with the map ``planted`` at cell ``at``."""

    def __init__(self, n, at, planted):
        super().__init__(n, 0.5, 2.0)
        self.at, self.planted = at, planted

    def emit_block(self, state, count):
        maps = super().emit_block(state, count)
        if 0 <= self.at - state.index < count:
            maps[self.at - state.index] = self.planted
        return maps


def outcome(run, *args):
    """``run(*args)``, or the name and text of the EstimationError it raises."""
    try:
        return run(*args)
    except EstimationError as e:
        return type(e).__name__, str(e)


class ScaledCocycle(MatrixCocycle):
    """Uniform entries whose steps carry nonzero log scales."""

    def step_blocks(self, omega, lo, hi, backward=False):
        for maps, ls in super().step_blocks(omega, lo, hi, backward):
            yield maps, ls + 0.01 * np.arange(1, len(ls) + 1)


def per_step_qr(coc, omega, T):
    """``oseledets_qr`` over T steps as a per-step loop over a signed QR:
    np.linalg.qr with the column signs that make diag R nonnegative, log
    and sum at every step."""
    Q, sums = np.eye(coc.n), np.zeros(coc.n)
    with np.errstate(divide="ignore"):
        for M, ls in _steps(coc.step_blocks(omega, 0, T)):
            Q, R = np.linalg.qr(M @ Q)
            signs = np.sign(np.diag(R))
            signs[signs == 0] = 1.0
            Q = np.multiply(Q, signs, order="C")
            d = np.abs(np.diag(R))
            sums += np.where(d > 0, np.log(np.maximum(d, 1e-300)), -np.inf) + ls
    return np.sort(sums / (T * coc.dt))[::-1]


def per_step_forward(coc, omega, u0, T, record_every=0, chunks=None):
    """``forward_floquet`` over a block of probes as a per-step loop: checks,
    log, growth and history rows taken at every step; over ``chunks`` in
    place of the T steps from ``omega`` if given."""
    U = np.array(u0, dtype=float)
    U = _enforce_cone(U / _column_norms(U), coc.cone_tol, 0.0)
    k = U.shape[1]
    growth, since, ln_rows, u_rows = np.zeros(k), None, [], []
    gone, w = np.zeros(k, dtype=bool), np.empty((k, coc.n))
    n_rows = np.full(k, T // record_every if record_every else 0)
    for step, (M, ls) in enumerate(_steps(coc.step_blocks(omega, 0, T) if chunks is None else chunks), 1):
        V = M @ U
        r = np.sqrt(np.vecdot(V, V, axis=0))
        if not np.isfinite(r).all():
            raise EstimationError(f"forward iterate not finite after step {step - 1} (norm {r[~np.isfinite(r)][0]})")
        dead = (r == 0.0) & ~gone
        w[dead], n_rows[dead] = V[:, dead].T, len(ln_rows)
        gone |= r == 0.0
        if gone.all():
            break
        if gone.any():
            live = np.flatnonzero(~gone)[0]
            V[:, gone], r[gone] = V[:, live, None], r[live]
        U = V / r
        if not U.min() >= 0.0:
            U = _enforce_cone(U, coc.cone_tol, step)
            U /= _column_norms(U)
        ln = np.log(r)
        if ls:
            ln += ls
        growth += ln
        if record_every:
            since = ln if since is None else since + ln
            if step % record_every == 0:
                ln_rows.append(since)
                u_rows.append(U)
                since = None
    log_growth = np.where(gone, -math.inf, growth)
    w[~gone] = U.T[~gone]
    times = record_every * np.arange(1, len(ln_rows) + 1) * 1
    log_rho = np.array(ln_rows).reshape(-1, k).T
    directions = np.stack(u_rows).transpose(2, 0, 1).copy() if u_rows else np.empty((k, 0, coc.n))
    return [FloquetTrack(w=w[j], log_growth=float(log_growth[j]), horizon=T, lambda1=float(log_growth[j]) / T,
                         times=times[:n_rows[j]], log_rho=log_rho[j, :n_rows[j]],
                         directions=directions[j, :n_rows[j]])
            for j in range(k)]


def per_step_separation(coc, omega, T, warmup, proj_samples=0):
    """``separation_estimate`` over T steps as per-step loops over the maps of
    its replay, read as (M, log scale) pairs through ``_steps``: the
    principal direction and then the dual direction by ``per_step_forward``
    (the dual over the transposed maps, latest step first, warmed up over
    [T, T + warmup)), then the complement frame, one map at a time, with
    its projected map P_k M_k^T formed and its threshold on |M|_F |Y|_F
    taken at every step."""
    n, blocks = coc.n, coc.replay(omega, 0, T + warmup)
    sample_every = max(1, T // proj_samples) if proj_samples else 0
    w = warmup_direction(coc, omega, warmup)
    [track] = per_step_forward(coc, None, w[:, None], T, sample_every, chunks=blocks(0, T))
    z = np.full((n, 1), 1.0 / math.sqrt(n))
    z = per_step_forward(coc, None, z, warmup, chunks=_transposed(blocks(T, T + warmup, backward=True)))[0].w \
        if warmup else z[:, 0] / np.linalg.norm(z)
    [dual] = per_step_forward(coc, None, z[:, None], T, 1, chunks=_transposed(blocks(0, T, backward=True)))
    # z at steps T, T - 1, ..., 0: the walk's start as it normalises it, then its rows
    zs = np.concatenate([_enforce_cone(z[:, None] / _column_norms(z[:, None]), coc.cone_tol, T).T, dual.directions])
    Y, log_restricted = _orth_complement(zs[0]), 0.0
    for k, (M, ls) in enumerate(_steps(_transposed(blocks(0, T, backward=True)))):
        z = zs[k + 1]
        B = M - z[:, None] * (z[None] @ M)
        V = B @ Y
        s = _norm(V)
        if not math.isfinite(s):
            raise EstimationError(f"complement frame not finite after the adjoint of step {T - 1 - k} (norm {s})")
        if s <= 1e-13 * _norm(M) * _norm(Y):
            log_restricted = None
            break
        Y = V / s
        log_restricted += np.log(s) + ls
    if log_restricted is not None:
        log_restricted = float(log_restricted) + math.log(_spectral_norm(Y))
    steps = range(0, T + 1, sample_every) if sample_every else []
    proj_history = [(k * coc.dt, math.log(_projection_norm(u, zs[T - k])))
                    for k, u in zip(steps, [w, *track.directions])]
    horizon, log_growth, w = T * coc.dt, track.log_growth, track.w
    lambda1 = log_growth / horizon
    dead = log_restricted is None
    sigma = math.inf if dead else (log_growth - log_restricted) / horizon
    lambda2 = -math.inf if dead else lambda1 - sigma
    return SeparationEstimate(lambda1_hat=lambda1, lambda2_hat=lambda2, sigma_hat=sigma, w=w, w_star=zs[T],
                              f1_basis=_orth_complement(zs[T]), projection_norm_history=proj_history,
                              horizon=horizon)


class TestChunkClose:
    # each chunk of BLOCK_CELLS steps is closed at once; its logs, sums and
    # rows are bit for bit those of a loop that takes them step by step,
    # on horizons around one chunk, rows that span chunk edges and steps
    # that annihilate a column or everything inside the second chunk
    HORIZONS = (BLOCK_CELLS - 1, BLOCK_CELLS, BLOCK_CELLS + 1, 2000)
    EVERY = (0, 1, 7, 300)

    # the unsigned QR loop reads |diag R| bit for bit as the signed one,
    # also at N = 130, past LAPACK's blocking crossover (one horizon there)
    @pytest.mark.parametrize("T, n", [*product(HORIZONS, (2, 3, 24, 40)), (BLOCK_CELLS + 1, 130)])
    def test_qr_matches_per_step(self, T, n):
        for coc in (iid_positive_cocycle(n), ScaledCocycle(UniformEntriesModel(n, 0.5, 2.0))):
            assert np.array_equal(oseledets_qr(coc, disc_state(4), T), per_step_qr(coc, disc_state(4), T))

    def test_ode_qr_matches_per_step(self):
        # flow maps from one expm per constant piece and from DOP853 batches
        T = BLOCK_CELLS + 44
        for model in (PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0)),
                      CallableOdeModel(3, half_cell_field, half_cell_edges)):
            coc = OdeCocycle(model, dt=0.1, rtol=1e-8)
            exps = oseledets_qr(coc, cont_state(8), T * coc.dt)
            assert np.array_equal(exps, per_step_qr(coc, cont_state(8), T))

    @pytest.mark.parametrize("n", [3, 24])
    @pytest.mark.parametrize("T", HORIZONS)
    def test_forward_matches_per_step(self, n, T):
        rng = np.random.default_rng(n + T)
        probes = rng.uniform(0.1, 1.0, (n, 2))
        for coc in (iid_positive_cocycle(n), ScaledCocycle(UniformEntriesModel(n, 0.5, 2.0))):
            for every in self.EVERY:
                for u0 in (probes[:, :1], probes):
                    got = forward_floquet(coc, disc_state(5), u0, T, record_every=every)
                    assert same(got, per_step_forward(coc, disc_state(5), u0, T, every)), (every, u0.shape)

    @pytest.mark.parametrize("n", [3, 24])
    @pytest.mark.parametrize("everything", [False, True], ids=["one-column", "every-column"])
    def test_annihilation_in_second_chunk(self, n, everything):
        dead = BLOCK_CELLS + 44
        coc = MatrixCocycle(BlockDiagonalModel(n, dead, everything))
        probes = np.zeros((n, 2))
        probes[0, 0], probes[1:, 1] = 1.0, 1.0
        for every in self.EVERY:
            got = forward_floquet(coc, disc_state(6), probes, 2000, record_every=every)
            assert same(got, per_step_forward(coc, disc_state(6), probes, 2000, every)), every
            assert got[0].log_growth == -math.inf and len(got[0].log_rho) == (dead // every if every else 0)
            assert (got[1].log_growth == -math.inf) == everything

    # a step that needs care, planted at the first, a middle and the last
    # step of the second chunk: a roundoff-level cone excursion (clipped), a
    # NaN map (raised) or an exact-zero column (annihilated); from there the
    # chunk is walked again step by step, as the per-step loop walks it
    @pytest.mark.parametrize("n", [3, 24])
    @pytest.mark.parametrize("at", [BLOCK_CELLS, BLOCK_CELLS + 100, 2 * BLOCK_CELLS - 1],
                             ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", ["cone", "nan", "zero"])
    def test_careful_rewalk(self, n, at, kind):
        if kind == "zero":
            coc = MatrixCocycle(BlockDiagonalModel(n, at))
            probes = np.zeros((n, 2))
            probes[0, 0], probes[1:, 1] = 1.0, 1.0
        else:
            # the cone map shifts coordinates up and sends -1e-13 x_0 to the last
            planted = np.full((n, n), math.nan) if kind == "nan" else np.eye(n, k=1)
            planted[-1, 0] = math.nan if kind == "nan" else -1e-13
            coc = MatrixCocycle(PlantedModel(n, at, planted))
            probes = np.random.default_rng(n + at).uniform(0.1, 1.0, (n, 2))
        T = 2 * BLOCK_CELLS + 44
        for every, u0 in product(self.EVERY, (probes[:, :1], probes)):
            got, want = (outcome(run, coc, disc_state(6), u0, T, every) for run in (forward_floquet, per_step_forward))
            assert same(got, want), (every, u0.shape)
            assert kind != "nan" or got == ("EstimationError", f"forward iterate not finite after step {at} (norm nan)")
            assert kind != "cone" or min(track.w.min() for track in want) >= 0.0

    @pytest.mark.parametrize("n", [3, 24])
    def test_exact_zero_in_r_diagonal(self, n):
        # block 0's R entry is exactly 0 at the dead cell: its exponent is -inf
        coc = MatrixCocycle(BlockDiagonalModel(n, BLOCK_CELLS + 44))
        exps = oseledets_qr(coc, disc_state(7), 2000)
        assert np.array_equal(exps, per_step_qr(coc, disc_state(7), 2000))
        assert exps[-1] == -math.inf and np.isfinite(exps[:-1]).all()


class TestSeparationSweeps:
    # both sweeps walk each chunk's maps in place; the estimate is bit for
    # bit that of the loop over (M, log scale) pairs, on horizons around one
    # chunk and warm-ups of none, less than one chunk and more than one
    WARMUPS = (0, 50, 300)

    @pytest.mark.parametrize("n", [3, 24])
    @pytest.mark.parametrize("T", TestChunkClose.HORIZONS)
    def test_matches_per_step(self, n, T):
        coc = ScaledCocycle(UniformEntriesModel(n, 0.5, 2.0))
        for warmup in self.WARMUPS:
            got = separation_estimate(coc, disc_state(9), T, warmup=warmup, proj_samples=7)
            assert same(got, per_step_separation(coc, disc_state(9), T, warmup, 7)), warmup

    def test_rank_deficient_and_annihilated_match_per_step(self):
        # a rank-one frame that lives on, and a complement that dies at once
        A = np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 1.0], [3.0, 3.0, 2.0]])
        B = np.array([[2.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 2.0]])
        for model in (IidChoiceModel([A, B]), ConstantMatrixModel(np.ones((3, 3)))):
            coc = MatrixCocycle(model)
            for warmup in self.WARMUPS:
                got = separation_estimate(coc, disc_state(3), 400, warmup=warmup, proj_samples=5)
                assert same(got, per_step_separation(coc, disc_state(3), 400, warmup, 5)), warmup
            assert (got.sigma_hat == math.inf) == isinstance(model, ConstantMatrixModel)

    def test_stored_replay_reads_in_chunks(self):
        # the replay contract, on every cocycle kind: a read of steps [a, b)
        # of ``replay(omega, lo, hi)``, forward or backward, yields at most
        # BLOCK_CELLS maps at a time, the size of the forward loop's chunk
        # buffers; put back in step order it is one forward ``step_blocks``
        # read of [lo, hi), and so is a second read, bit for bit.  The
        # ranges cross a chunk cut.  Only the ODE stores its maps, so a read
        # is also the direct ``step_blocks`` read of [a, b) in its
        # direction, bit for bit: step k has one base point however a read
        # reaches it, so do the maps of steps that straddle a breakpoint
        # (dt = 0.3).
        cfg = validate_config({"seed": 4, "driver": {"kind": "markov-shift", "transition": [[0.9, 0.1], [0.2, 0.8]]},
                               "model": {"kind": "markov-list", "matrices": [np.eye(3).tolist(),
                                                                              np.ones((3, 3)).tolist()]}})

        def cells(dt):
            return OdeCocycle(PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0)), dt=dt)

        cases = {
            "uniform": (iid_positive_cocycle(3), disc_state(10)),
            "markov-list": (MatrixCocycle(build_model(cfg)[1]), build_driver(cfg).initial(4)),
            "cells, dt 0.1": (cells(0.1), cont_state(10)),
            "cells, dt 0.3": (cells(0.3), cont_state(10)),
            "torus": (OdeCocycle(TorusExampleModel(), dt=0.25, rtol=1e-6), TorusRotation().initial(0)),
            "matrix adjoint": (iid_positive_cocycle(3).dual(), disc_state(10)),
            "ode adjoint": (cells(0.1).dual(), cont_state(10)),
        }

        def in_step_order(chunks, backward):
            chunks = [(m.copy(), l.copy()) for m, l in chunks]
            assert all(0 < len(m) <= BLOCK_CELLS for m, _ in chunks)
            chunks = chunks[::-1] if backward else chunks
            return np.concatenate([m for m, _ in chunks]), np.concatenate([l for _, l in chunks])

        lo, hi = -5, 2 * BLOCK_CELLS + 40
        for case, (coc, omega) in cases.items():
            maps, ls = in_step_order(coc.step_blocks(omega, lo, hi), False)
            blocks = coc.replay(omega, lo, hi)
            for a, b in ((lo, hi), (0, BLOCK_CELLS + 1), (3, 3 + BLOCK_CELLS)):
                for backward in (False, True):
                    at = (case, a, b, backward)
                    read = in_step_order(blocks(a, b, backward), backward)
                    again = in_step_order(blocks(a, b, backward), backward)
                    direct = in_step_order(coc.step_blocks(omega, a, b, backward), backward)
                    for got in (again, (maps[a - lo:b - lo], ls[a - lo:b - lo]), direct):
                        assert np.array_equal(read[0], got[0]) and np.array_equal(read[1], got[1]), at

    def test_ode_matches_per_step(self):
        # the piecewise-constant flow maps, read from their stored replay
        coc = OdeCocycle(PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0)), dt=0.1)
        for T, warmup in ((300, 0), (300, 50), (BLOCK_CELLS + 1, 300)):
            got = separation_estimate(coc, cont_state(10), T * coc.dt, warmup=warmup, proj_samples=6)
            assert same(got, per_step_separation(coc, cont_state(10), T, warmup, 6)), (T, warmup)


class TestLapackKernels:
    def test_helpers_match_numpy_bit_for_bit(self):
        # the step loops' direct LAPACK calls reproduce the numpy wrappers
        # they replace exactly, so every estimate is unchanged; N = 130 is
        # past LAPACK's blocking crossover, where the workspace size matters
        rng = np.random.default_rng(5)
        for n in (2, 3, 23, 24, 130):
            for shape in ((n, n), (n, n - 1)):
                for _ in range(25 if n < 100 else 3):
                    V = rng.uniform(-1.0, 2.0, shape) * 10.0 ** rng.integers(-3, 4)
                    Q, R = np.linalg.qr(V)
                    F = V.copy()
                    Qf, factored = _qr(F)
                    assert factored is F  # factored in place
                    assert np.array_equal(Qf, Q) and Qf.flags.c_contiguous
                    assert np.array_equal(np.triu(F[:shape[1]]), R)
                    for A in (V, R, np.triu(rng.uniform(-1.0, 1.0, (n, n)))):
                        assert _spectral_norm(A) == np.linalg.norm(A, 2)
                    assert _norm(V) == np.linalg.norm(V)
                    assert _norm(V[:, 0]) == np.linalg.norm(V[:, 0])

    def test_lapack_failure_raises(self):
        # dgesdd rejects a NaN matrix (info -4); np.linalg.norm(., 2) raises
        # too, and neither leaves a RuntimeWarning behind
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="dgesdd"):
                _spectral_norm(np.full((3, 3), math.nan))


unit_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def vector_pairs(max_n):
    """(u, u_star): two float lists of one length N in 2..max_n."""
    def pair(n):
        vec = st.lists(unit_floats, min_size=n, max_size=n)
        return st.tuples(vec, vec)

    return st.integers(2, max_n).flatmap(pair)


class TestAdjointCocycle:
    """<S(theta_-1 omega) u, u*> = <u, S*(omega) u*>, and the dual of the dual
    is the primal itself."""

    @staticmethod
    def check_pairing(coc, omega, u, u_star, rel):
        dual = coc.dual()
        assert dual.dual() is coc
        # the pairing is bilinear: unit max-abs inputs keep the bound's scale
        # from underflowing with a tiny u or u_star
        u, u_star = np.asarray(u), np.asarray(u_star)
        assume(np.any(u) and np.any(u_star))
        u, u_star = u / np.abs(u).max(), u_star / np.abs(u_star).max()
        [([M], [ls])] = coc.step_blocks(omega, -1, 0)
        [([M_star], [ls_star])] = dual.step_blocks(omega, 0, 1)
        lhs = math.exp(ls) * float((M @ u) @ u_star)
        rhs = math.exp(ls_star) * float(u @ (M_star @ u_star))
        scale = math.exp(ls) * np.linalg.norm(M, 2) * np.linalg.norm(u) * np.linalg.norm(u_star)
        assert abs(lhs - rhs) <= rel * scale

    @settings(max_examples=30, deadline=None)
    @given(vector_pairs(5), st.integers(0, 10**6))
    @example(([0.0, 7.818148157824376e-177], [0.75, 1.0]), 0)  # |u| underflowed the bound
    def test_matrix_pairing(self, pair, seed):
        u, u_star = pair
        self.check_pairing(iid_positive_cocycle(len(u)), disc_state(seed), u, u_star, 1e-13)

    @settings(max_examples=10, deadline=None)
    @given(vector_pairs(3), st.integers(0, 10**6))
    def test_ode_pairing(self, pair, seed):
        u, u_star = pair
        n = len(u)
        model = PiecewiseConstantOdeModel(n, cooperative_sampler(n, -1.0, 1.0, 0.0, 1.0))
        # dt = 0.3 makes some steps straddle a unit-cell breakpoint
        self.check_pairing(OdeCocycle(model, dt=0.3), cont_state(seed), u, u_star, 1e-8)


class TestBirkhoff:
    def test_torus_equidistribution(self):
        st = TorusRotation().initial(3)
        x = np.array([st.advance((k + 0.5) * 0.05).position[0] for k in range(10_000)])
        assert abs(np.mean(np.sin(2 * np.pi * x))) < 0.01  # quadrature oracle: the space average is 0

    def test_divergence_diagnostic_mechanics(self):
        diag = DivergenceDiagnostic.from_means([125, 250, 500, 1000],
                                               [-11.0, -12.5, -14.0, -16.0], -10.0)
        assert diag.diverging and diag.strictly_decreasing and diag.below_threshold
        flat = DivergenceDiagnostic.from_means([125, 250], [-11.0, -11.0], -10.0)
        assert not flat.diverging


def kappa_route(coc, omega, horizon, warmup):
    """The kappa route along the track of a warmed probe, and that track."""
    w0 = warmup_direction(coc, omega, warmup)
    track = forward_floquet(coc, omega, w0, horizon, record_every=1)
    return lambda1_via_kappa(coc, omega, np.vstack([w0, track.directions])), track


def per_step_kappa(coc, omega, directions, batches=8):
    """The kappa route as a loop over the steps, with two ``field`` calls,
    one base-point step and two quadratic forms each: (estimate, ci, the
    largest absolute coefficient entry it read)."""
    dt, ws, model = coc.dt, np.asarray(directions, dtype=float), coc.model
    nudge, state, scale = 1e-9 * dt, omega, 0.0
    cell_integrals = np.empty(len(ws) - 1)
    for k in range(len(ws) - 1):
        right = model.field(state, nudge)
        state = coc.advance(state)
        left = model.field(state, -nudge)
        scale = max(scale, np.abs(right).max(), np.abs(left).max())
        cell_integrals[k] = 0.5 * (float(ws[k] @ right @ ws[k]) + float(ws[k + 1] @ left @ ws[k + 1])) * dt
    estimate = float(cell_integrals.sum()) / (len(cell_integrals) * dt)
    return estimate, batch_means(cell_integrals / dt, batches)[1], scale


class TestKappaRoute:
    @pytest.mark.parametrize("case", ["cells", "type-K", "torus"])
    def test_matches_per_step_loop(self, case):
        # 300 steps in chunks of BLOCK_CELLS; on the torus some steps hold a
        # wrap, which the sliver pieces keep out of the extrapolated field
        flip = np.array([1.0, 1.0, -1.0])
        cooperative = cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0)
        model, omega, dt = {
            "cells": (PiecewiseConstantOdeModel(3, cooperative), cont_state(2), 0.1),
            "type-K": (TypeKFlipModel(PiecewiseConstantOdeModel(
                3, lambda rng: flip[:, None] * cooperative(rng) * flip), 2), cont_state(2), 0.1),
            "torus": (TorusExampleModel(), TorusRotation().initial(0), 0.25),
        }[case]
        coc, n_steps = OdeCocycle(model, dt=dt), 300
        if case == "torus":
            assert any(len(model.breakpoints(omega.advance(k * dt), 0.0, dt)) for k in range(n_steps))
        w0 = warmup_direction(coc, omega, 50)
        directions = np.vstack([w0, forward_floquet(coc, omega, w0, n_steps * dt, record_every=1).directions])
        kr = lambda1_via_kappa(coc, omega, directions)
        estimate, ci, scale = per_step_kappa(coc, omega, directions)
        # a quadratic form of a unit vector is within about N^2 eps max|A| of
        # the loop's, and the sums over the steps add about n_steps eps max|A|
        bound = 2 * (model.n ** 2 + n_steps) * np.finfo(float).eps * scale
        assert abs(kr.estimate - estimate) <= bound and abs(kr.ci - ci) <= bound

    def test_symmetric_constant(self):
        coc = OdeCocycle(ConstantOdeModel([[0.0, 1.0], [1.0, 0.0]]), dt=0.05, rtol=1e-9)
        est, _ = kappa_route(coc, cont_state(), 40.0, 100)
        assert abs(est.estimate - 1.0) < 1e-6

    def test_matches_eigenvalue(self):
        A = np.diag([3.0, 3.0]) + np.ones((2, 2))
        top = np.linalg.eigvalsh(A)[-1]
        coc = OdeCocycle(ConstantOdeModel(A), dt=0.05, rtol=1e-9)
        est, _ = kappa_route(coc, cont_state(), 40.0, 100)
        assert abs(est.estimate - top) < 1e-6

    def test_agrees_with_forward_floquet(self):
        model = PiecewiseConstantOdeModel(2, cooperative_sampler(2, -0.5, 0.5, 0.1, 1.0))
        coc = OdeCocycle(model, dt=0.05, rtol=1e-8)
        kr, ff = kappa_route(coc, cont_state(6), 60.0, 80)
        assert abs(kr.estimate - ff.lambda1) <= max(1e-3, 3 * kr.ci)
