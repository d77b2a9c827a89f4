import numpy as np
import pytest
from scipy import stats as sps

from poscocycle.drivers import BLOCK_CELLS, IidShift, MarkovShift, TorusRotation, cell_uniforms


class TestIidShift:
    def test_determinism(self):
        sys = IidShift()
        a = sys.initial(7)
        b = sys.initial(7)
        assert a.rng().random(3).tolist() == b.rng().random(3).tolist()

    def test_distinct_seeds_distinct_streams(self):
        sys = IidShift()
        a = sys.initial(1).rng().random(8)
        b = sys.initial(2).rng().random(8)
        assert not np.array_equal(a, b)

    def test_semigroup_exact(self):
        sys = IidShift()
        st0 = sys.initial(3)
        for s, t in [(5, 7), (-4, 9), (100, -250)]:
            assert sys.advance(sys.advance(st0, s), t).index == sys.advance(st0, s + t).index

    def test_negative_time_exact_inverse(self):
        sys = IidShift()
        st0 = sys.initial(3)
        back = st0.advance(10).advance(-10)
        assert back.index == st0.index
        assert back.rng().random() == st0.rng().random()

    def test_non_integer_step_rejected(self):
        sys = IidShift()
        with pytest.raises(ValueError, match="integer"):
            sys.initial(0).advance(0.5)

    def test_emissions_independent_chi_square(self):
        # first uniform at index n vs index n+1, binned 4x4, for the per-cell
        # generators and for one block draw
        st0 = IidShift().initial(123)
        per_cell = np.array([st0.advance(n).rng().random() for n in range(2001)])
        block = cell_uniforms(123, 0, 0, 2001, 1)[:, 0]
        for xs in (per_cell, block):
            a, b = np.digitize(xs[:-1], [0.25, 0.5, 0.75]), np.digitize(xs[1:], [0.25, 0.5, 0.75])
            table = np.zeros((4, 4))
            np.add.at(table, (a, b), 1)
            _, p, _, _ = sps.chi2_contingency(table)
            assert p > 1e-3

    def test_block_rows_are_cells(self):
        # row j of a block is the cell index + j drawn alone, whatever the width
        st0 = IidShift().initial(31).advance(-300)
        for width in (1, 4, 9):
            block = st0.uniforms(2, width, 600)
            assert block.shape == (600, width)
            for j in (0, 1, 255, 299, 300, 511, 599):
                assert np.array_equal(block[j], st0.advance(j).uniforms(2, width)[0])

    def test_continuous_suspension_index(self):
        sys = IidShift(time="continuous")
        st0 = sys.initial(0)
        assert st0.advance(2.25).index == 2
        assert st0.advance(-0.5).index == -1


class TestMarkovShift:
    P = [[0.9, 0.1], [0.4, 0.6]]
    P3 = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.1, 0.5]]

    def test_single_state_constant(self):
        sys = MarkovShift([[1.0]])
        st0 = sys.initial(5)
        assert all(sys.chain_states(st0.advance(n), 1)[0] == 0 for n in range(-5, 6))

    def test_stationary_distribution(self):
        sys = MarkovShift(self.P)
        assert np.allclose(sys.stationary @ np.asarray(self.P), sys.stationary)

    def test_not_row_stochastic_rejected(self):
        with pytest.raises(ValueError, match="stochastic"):
            MarkovShift([[0.5, 0.2], [0.4, 0.6]])

    def test_two_sided_deterministic(self):
        sys = MarkovShift(self.P)
        st0 = sys.initial(9)
        path = [sys.chain_states(st0.advance(n), 1)[0] for n in range(-20, 21)]
        path2 = [sys.chain_states(st0.advance(n), 1)[0] for n in range(-20, 21)]
        assert path == path2

    def test_empirical_occupation_matches_stationary(self):
        sys = MarkovShift(self.P)
        st0 = sys.initial(4)
        states = [sys.chain_states(st0.advance(n), 1)[0] for n in range(-1500, 1500)]
        freq = np.bincount(states, minlength=2) / len(states)
        assert np.abs(freq - sys.stationary).max() < 0.05


    def test_chain_states_match_per_index(self):
        # one walk per seed and side, whatever the query order; blocks
        # straddle 0 and checkpoints
        ref, blk = MarkovShift(self.P3), MarkovShift(self.P3)
        st0 = ref.initial(21)
        per_index = [ref.chain_states(st0.advance(n), 1)[0] for n in range(699, -701, -1)][::-1]
        K = BLOCK_CELLS
        for start in (-700, 0, -300, 44):
            got = blk.chain_states(blk.initial(21).advance(start), K)
            assert got.tolist() == per_index[start + 700:start + 700 + K]
        whole = blk.chain_states(blk.initial(21).advance(-700), 1400)
        assert whole.tolist() == per_index

    def test_transitions_chi_square(self):
        # forward transitions follow P, backward ones the reversed chain
        sys = MarkovShift(self.P3)
        n = 20000
        path = sys.chain_states(sys.initial(6).advance(-n), 2 * n + 1)
        ahead, back = path[n:], path[n::-1]
        for states, P in ((ahead, sys.transition), (back, sys.reversed_transition)):
            counts = np.zeros((3, 3))
            np.add.at(counts, (states[:-1], states[1:]), 1)
            stat = float((((counts - counts.sum(1, keepdims=True) * P) ** 2)
                          / (counts.sum(1, keepdims=True) * P)).sum())
            assert sps.chi2.sf(stat, 3 * 2) > 1e-3

    def test_checkpoints_bounded(self):
        sys = MarkovShift(self.P3)
        K, n = BLOCK_CELLS, 100_000
        st0 = sys.initial(2)
        for start in range(-n, n, K):
            sys.chain_states(st0.advance(start), min(K, n - start))
        assert sum(len(c) for c in sys._checkpoints.values()) <= 2 * n / K + 2


class TestTorusRotation:
    def test_rotation_step(self):
        rho = np.sqrt(2) - 1
        sys = TorusRotation(rho)
        st = sys.initial(0)
        st = type(st)(system=sys, anchor=(0.25, 0.5))
        w1, w2 = st.advance(1.0).position
        assert abs(w1 - 0.25) < 1e-15
        assert abs(w2 - ((0.5 + rho) % 1.0)) < 1e-15

    def test_zero_advance_identity(self):
        sys = TorusRotation()
        st = sys.initial(2)
        assert st.advance(0.0).position == st.position

    def test_invertibility(self):
        sys = TorusRotation()
        st = sys.initial(3)
        back = st.advance(1.0).advance(-1.0)
        assert max(abs(a - b) for a, b in zip(back.position, st.position)) < 1e-15

    def test_semigroup_drift_small(self):
        sys = TorusRotation()
        st = sys.initial(1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s, t = rng.uniform(-500, 500, 2)
            a = st.advance(s).advance(t).position
            b = st.advance(s + t).position
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12

    def test_initial_in_unit_square(self):
        sys = TorusRotation()
        for seed in range(20):
            w1, w2 = sys.initial(seed).position
            assert 0 < w1 <= 1 and 0 < w2 <= 1

    def test_wrap_times_are_crossings(self):
        sys = TorusRotation()
        st = sys.initial(8)
        ts = sys.wrap_times(st, 10.0)
        assert np.all(np.diff(ts) > 0)
        w1, w2 = st.position
        for tau in ts:
            d1 = (w1 + tau) % 1.0
            d2 = (w2 + sys.rho * tau) % 1.0
            assert min(d1, 1 - d1, d2, 1 - d2) < 1e-9

    def test_wrap_count(self):
        sys = TorusRotation()
        st = sys.initial(8)
        ts = sys.wrap_times(st, 100.0)
        expected = 100 + int(100 * sys.rho)
        assert abs(len(ts) - expected) <= 2

    def test_rho_validation(self):
        with pytest.raises(ValueError, match="rho"):
            TorusRotation(1.5)
