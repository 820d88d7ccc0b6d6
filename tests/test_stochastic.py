import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfode import checks, stochastic
from sfode.analysis import ensemble_run, ito_isometry_check
from sfode.cli import RunConfig
from sfode.picard import cauchy_diagnostic, diagnostic_rule
from sfode.solver import SolverConfig, solve
from sfode.stochastic import (
    SeedSpec,
    TimeGrid,
    WienerPath,
    generate_path,
    increment_batches,
    make_grid,
    restrict_path,
)
from sfode.systems import linear_test


class TestMakeGrid:
    def test_two_step_grid(self):
        grid = make_grid(1.0, 0.5)
        assert grid.num_steps == 2
        np.testing.assert_allclose(grid.nodes(), [0.0, 0.5, 1.0])

    def test_production_scale_grid(self):
        grid = make_grid(50.0, 0.005)
        assert grid.num_nodes == 10001
        assert grid.num_steps == 10000

    def test_grid_derives_its_step_count(self):
        grid = TimeGrid(1.0, 0.25)
        assert grid.num_steps == 4 and grid == make_grid(1.0, 0.25)
        with pytest.raises(TypeError):
            TimeGrid(1.0, 0.25, 4)
        with pytest.raises(checks.ConfigError, match="T/h must be an integer"):
            TimeGrid(1.0, 0.3)

    def test_rejects_non_commensurate(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 0.3)

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_grid(-1.0, 0.5)
        with pytest.raises(ValueError):
            make_grid(1.0, 0.0)

    @given(st.integers(min_value=2, max_value=500), st.floats(min_value=1e-3, max_value=10.0))
    def test_equidistant_and_consistent(self, num_steps, h):
        grid = make_grid(num_steps * h, h)
        assert grid.num_steps == num_steps
        nodes = grid.nodes()
        np.testing.assert_allclose(np.diff(nodes), h, rtol=1e-9)
        assert abs(grid.num_steps * grid.h - grid.T) <= grid.h * 1e-9


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)
        with pytest.raises(ValueError):
            SeedSpec(1, path_index=-1)
        with pytest.raises(ValueError):
            SeedSpec(1, channel_index=-2)

    @pytest.mark.parametrize("seed", [1.0, 2.5, "1", None, np.float64(3.0), True])
    def test_seed_must_be_an_integer(self, seed):
        assert checks.seed_rule("seed", seed) == [
            f"seed must be a 64-bit unsigned integer; got {seed!r}"]
        with pytest.raises(checks.ConfigError, match="64-bit unsigned integer"):
            SeedSpec(seed)
        with pytest.raises(checks.ConfigError, match="64-bit unsigned integer"):
            next(increment_batches(seed, 2, make_grid(1.0, 0.5), 1))

    @pytest.mark.parametrize("index", [2.5, 1.0, "0", np.float64(1.0)])
    def test_stream_indices_must_be_integers(self, index):
        with pytest.raises(ValueError, match="must be an integer"):
            SeedSpec(1, index)
        with pytest.raises(ValueError, match="must be an integer"):
            SeedSpec(1, 0, index)

    def test_numpy_integers_are_python_ints(self):
        # 2**64 - 1 as np.uint64 would wrap on + 1; the stored int does not.
        # The path index is the last of the key space.
        grid = make_grid(1.0, 0.25)
        top, last = 2**64 - 1, 2**32 - 1
        spec = SeedSpec(np.uint64(top), np.uint64(last), np.int64(0))
        assert spec == SeedSpec(top, last)
        assert all(type(v) is int for v in (spec.master_seed, spec.path_index, spec.channel_index))
        assert checks.seed_rule("seed", np.uint64(top)) == []
        assert checks.seed_rule("seed", np.int64(-1)) != []
        np.testing.assert_array_equal(generate_path(spec, grid, 2).cumulative,
                                      generate_path(SeedSpec(top, last), grid, 2).cumulative)
        (_, dW), = increment_batches(np.uint64(top), 2, grid, 1)
        (_, ref), = increment_batches(top, 2, grid, 1)
        np.testing.assert_array_equal(dW, ref)


class TestGeneratePath:
    def test_starts_at_zero(self):
        path = generate_path(SeedSpec(11), make_grid(1.0, 0.25), num_channels=2)
        np.testing.assert_array_equal(path.cumulative[:, 0], 0.0)

    def test_needs_a_channel(self):
        with pytest.raises(ValueError, match="num_channels must be >= 1; got 0"):
            generate_path(SeedSpec(11), make_grid(1.0, 0.25), num_channels=0)

    def test_channel_bound_holds_three_channels_on_the_longest_grid(self):
        # the bound is on the floats of one path: the 3-D systems' paths fit
        # on any grid, and a count past it fails before anything is drawn
        nodes = checks.MAX_STEPS + 1
        assert checks.channels_rule(3, nodes) == []
        assert checks.channels_rule(4, nodes) == [
            f"num_channels must be at most 3 on a grid of {nodes} nodes; got 4"]

    def test_reproducible_bitwise(self):
        grid = make_grid(2.0, 0.125)
        a = generate_path(SeedSpec(42, 3), grid, num_channels=3)
        b = generate_path(SeedSpec(42, 3), grid, num_channels=3)
        np.testing.assert_array_equal(a.increments, b.increments)
        np.testing.assert_array_equal(a.cumulative, b.cumulative)

    def test_distinct_streams_differ(self):
        grid = make_grid(1.0, 0.25)
        base = generate_path(SeedSpec(42, 0, 0), grid)
        assert not np.array_equal(base.increments, generate_path(SeedSpec(43, 0, 0), grid).increments)
        assert not np.array_equal(base.increments, generate_path(SeedSpec(42, 1, 0), grid).increments)
        two = generate_path(SeedSpec(42), grid, num_channels=2).increments
        assert not np.array_equal(two[0], two[1])

    def test_increments_are_exact_cumulative_differences(self):
        path = generate_path(SeedSpec(7), make_grid(1.0, 1.0 / 64), num_channels=2)
        np.testing.assert_array_equal(np.diff(path.cumulative, axis=1), path.increments)

    def test_channels_match_multichannel_draw(self):
        # channel c is stream (s, i, c) whatever the channel count: a draw of
        # fewer channels is the first channels of a wider one
        grid = make_grid(1.0, 0.125)
        multi = generate_path(SeedSpec(9, 2), grid, num_channels=3)
        for channels in (1, 2):
            fewer = generate_path(SeedSpec(9, 2), grid, num_channels=channels)
            np.testing.assert_array_equal(multi.increments[:channels], fewer.increments)

    def test_immutable_after_construction(self):
        path = generate_path(SeedSpec(1), make_grid(1.0, 0.5))
        with pytest.raises(ValueError):
            path.increments[0, 0] = 99.0


class TestWienerPath:
    def test_increments_derived_read_only(self):
        grid = make_grid(1.0, 0.25)
        cumulative = np.array([[0.0, 1.0, 3.0, 2.0, 2.5]])
        path = WienerPath(grid, cumulative)
        np.testing.assert_array_equal(path.increments, [[1.0, 2.0, -1.0, 0.5]])
        assert path.num_channels == 1
        with pytest.raises(ValueError):
            path.cumulative[0, 1] = 0.0
        with pytest.raises(ValueError):
            path.increments[0, 0] = 0.0

    def test_keeps_a_private_copy(self):
        grid = make_grid(1.0, 0.25)
        cumulative = np.array([[0.0, 1.0, 3.0, 2.0, 2.5]])
        path = WienerPath(grid, cumulative)
        assert cumulative.flags.writeable
        cumulative[0, 1] = 7.0
        np.testing.assert_array_equal(path.cumulative, [[0.0, 1.0, 3.0, 2.0, 2.5]])
        np.testing.assert_array_equal(path.increments, [[1.0, 2.0, -1.0, 0.5]])

    def test_validation(self):
        grid = make_grid(1.0, 0.25)
        with pytest.raises(ValueError, match="shape"):
            WienerPath(grid, np.zeros((1, 4)))   # one node short
        with pytest.raises(ValueError, match="shape"):
            WienerPath(grid, np.zeros(5))        # no channel axis
        with pytest.raises(ValueError, match="W\\(0\\)"):
            WienerPath(grid, np.ones((2, 5)))

    @pytest.mark.parametrize("cumulative", ["abc", 1j, {}, None, [[0.0, 1.0, 2.0, 3.0, math.nan]],
                                            np.zeros((1, 5), complex)])
    def test_cumulative_holds_finite_real_numbers(self, cumulative):
        with pytest.raises(checks.ConfigError,
                           match="^cumulative must be (real numbers|finite); got"):
            WienerPath(make_grid(1.0, 0.25), cumulative)

    @pytest.mark.parametrize("grid", [None, 1.0, "grid"])
    def test_grid_is_a_time_grid(self, grid):
        message = f"grid must be a TimeGrid; got {grid!r}"
        with pytest.raises(checks.ConfigError, match=f"^{re.escape(message)}$"):
            WienerPath(grid, np.zeros((1, 5)))


GRID = make_grid(1.0, 0.25)
# bound: (a call just past the key space, the call at its edge, the message)
KEY_SPACE_BOUNDS = {
    "SeedSpec path_index": (lambda: SeedSpec(1, 2**32), lambda: SeedSpec(1, 2**32 - 1),
                            "path_index must be <= 4294967295; got 4294967296"),
    # channel c of a path is always stream c, so the one channel_index is 0
    "SeedSpec channel_index": (lambda: SeedSpec(1, 0, 1), lambda: SeedSpec(1, 0, 0),
                               "channel_index must be <= 0; got 1"),
    "increment_batches M": (lambda: increment_batches(0, 2**32 + 1, GRID, 1),
                            lambda: increment_batches(0, 2**32, GRID, 1),
                            "M must be <= 4294967296; got 4294967297"),
    "ensemble_run M": (
        lambda: ensemble_run(linear_test(sigma0=1.0), SolverConfig(0.8, GRID, True), 0, 2**32 + 1),
        lambda: checks.require(ensemble_run.__rules__["M"]("M", 2**32)),
        "M must be <= 4294967296; got 4294967297"),
    "ito_isometry_check M": (lambda: ito_isometry_check(0.8, GRID, 2**32 + 1),
                             lambda: checks.require(ito_isometry_check.__rules__["M"]("M", 2**32)),
                             "M must be <= 4294967296; got 4294967297"),
    "cauchy_diagnostic M": (lambda: cauchy_diagnostic(linear_test(), 0.8, GRID, 0, 2**32 + 1, 2),
                            lambda: checks.require(diagnostic_rule(0.8, 2**32, 2, GRID)),
                            "paths must be <= 4294967296; got 4294967297"),
    "command line paths": (lambda: RunConfig(paths=2**32 + 1), lambda: RunConfig(paths=2**32),
                           "paths must be <= 4294967296; got 4294967297"),
}


class TestDrawContract:
    """A batch draw equals the single-path draws bit for bit, and streams are
    keyed as README "Reproducibility" documents."""

    M = 7

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("size", [1, 3, M])
    def test_batches_match_single_paths(self, monkeypatch, channels, size):
        grid = make_grid(1.0, 0.0625)
        monkeypatch.setattr(stochastic, "BATCH_BYTES", size * 8 * channels * grid.num_nodes)
        starts, rows = [], []
        for start, dW in increment_batches(23, self.M, grid, channels):
            assert dW.shape == (min(size, self.M - start), channels, grid.num_steps)
            starts.append(start)
            rows.extend((start + b, row) for b, row in enumerate(dW))
        assert starts == list(range(0, self.M, size))
        assert [i for i, _ in rows] == list(range(self.M))
        for i, row in rows:
            np.testing.assert_array_equal(
                row, generate_path(SeedSpec(23, i), grid, channels).increments)

    @pytest.mark.parametrize("s", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_key_equals_seed_sequence(self, s):
        # master seeds of one and two 32-bit words; path ranges at the start
        # and at the end of the key space, each hashed at once; channel
        # indices up to the last one
        for paths in (range(0, 200), range(2**32 - 5, 2**32)):
            for c in (0, 2, 2**32 - 1):
                keys = stochastic._keys(stochastic._pool(s), paths, c)
                assert keys.shape == (len(paths), 2)
                for i, key in zip(paths, keys):
                    seq = np.random.SeedSequence(s, spawn_key=(i, c))
                    np.testing.assert_array_equal(key, seq.generate_state(2, np.uint64),
                                                  str((i, c)))

    @pytest.mark.parametrize("bound", KEY_SPACE_BOUNDS)
    def test_indices_and_path_counts_stay_in_the_key_space(self, bound):
        # a run near 2**32 paths takes days: a count at the edge is checked
        # on its rule or on the lazy generator, and nothing of that size runs
        past, edge, message = KEY_SPACE_BOUNDS[bound]
        with pytest.raises(checks.ConfigError, match=f"^{re.escape(message)}$"):
            past()
        edge()

    @staticmethod
    def reference(s, i, c, grid):
        """W of stream (s, i, c) from a fresh numpy Philox(SeedSequence)."""
        seq = np.random.SeedSequence(s, spawn_key=(i, c))
        draws = np.random.Generator(np.random.Philox(seq)).standard_normal(grid.num_steps)
        return np.concatenate([[0.0], np.cumsum(draws * math.sqrt(grid.h))])

    @pytest.mark.parametrize("s,i,c", [(0, 0, 0), (7, 3, 2), (2**64 - 1, 5, 1),
                                       (2**64 - 1, 2**32 - 1, 2)])
    def test_stream_keying(self, s, i, c):
        # every channel of a draw of c + 1 channels, up to channel c
        grid = make_grid(1.0, 0.125)
        dW = generate_path(SeedSpec(s, i), grid, c + 1).increments
        for k in range(c + 1):
            np.testing.assert_array_equal(dW[k], np.diff(self.reference(s, i, k, grid)))

    @pytest.mark.parametrize("s", [0, 2**32, 2**64 - 1])
    def test_batch_rows_are_streams(self, monkeypatch, s):
        # channel c of row b of a batch from start is stream (s, start + b, c),
        # over batches of two paths
        grid = make_grid(1.0, 0.125)
        monkeypatch.setattr(stochastic, "BATCH_BYTES", 2 * 8 * 3 * grid.num_nodes)
        for start, dW in increment_batches(s, 5, grid, 3):
            for b, c in np.ndindex(dW.shape[:2]):
                np.testing.assert_array_equal(dW[b, c],
                                              np.diff(self.reference(s, start + b, c, grid)))

    @pytest.mark.parametrize("s", [0, 2**64 - 1])
    @pytest.mark.parametrize("i0", [0, 2**32 - 2])
    def test_batch_across_a_word_boundary(self, s, i0):
        # a batch of two paths of two channels: the first two paths of the key
        # space, and the last two, below the word boundary at 2**32
        grid = make_grid(1.0, 0.125)
        paths = range(i0, i0 + 2)
        W = stochastic._wiener(s, paths, grid, 2)
        for b, i in enumerate(paths):
            np.testing.assert_array_equal(W[b], generate_path(SeedSpec(s, i), grid, 2).cumulative)
            for c in range(2):
                np.testing.assert_array_equal(W[b, c], self.reference(s, i, c, grid))


class TestPathStatistics:
    M = 10000

    def _terminal_values(self, master_seed):
        grid = make_grid(1.0, 0.25)
        return np.array([
            generate_path(SeedSpec(master_seed, i, 0), grid).cumulative[0, -1]
            for i in range(self.M + 1)
        ])

    def test_terminal_mean_and_variance(self):
        w = self._terminal_values(master_seed=2024)[: self.M]
        assert abs(np.mean(w)) <= 4.0 / math.sqrt(self.M)
        assert abs(np.var(w) - 1.0) <= 0.10

    def test_consecutive_paths_uncorrelated(self):
        w = self._terminal_values(master_seed=2025)
        r = np.corrcoef(w[:-1], w[1:])[0, 1]
        assert abs(r) <= 4.0 / math.sqrt(self.M)

    def test_increment_variance_scales_with_h(self):
        for h in (0.01, 0.0025):
            grid = make_grid(self.M * h, h)
            path = generate_path(SeedSpec(77), grid)
            assert abs(np.var(path.increments[0]) - h) <= 0.10 * h


class TestRestrictPath:
    def test_terminal_value_preserved_bitwise(self):
        fine = generate_path(SeedSpec(5), make_grid(1.0, 1.0 / 256), num_channels=2)
        for factor in (2, 4, 16):
            coarse = restrict_path(fine, make_grid(1.0, factor / 256))
            assert coarse.grid.num_steps == 256 // factor
            np.testing.assert_array_equal(coarse.cumulative[:, -1], fine.cumulative[:, -1])
            # every coarse node value is a fine node value, bitwise
            np.testing.assert_array_equal(coarse.cumulative, fine.cumulative[:, ::factor])

    def test_coarse_increments_sum_fine_ones(self):
        fine = generate_path(SeedSpec(6), make_grid(1.0, 1.0 / 64))
        coarse = restrict_path(fine, make_grid(1.0, 4.0 / 64))
        sums = fine.increments[0].reshape(-1, 4).sum(axis=1)
        np.testing.assert_allclose(coarse.increments[0], sums, atol=1e-12)

    def test_factor_validation(self):
        fine = generate_path(SeedSpec(6), make_grid(1.0, 0.125))
        with pytest.raises(ValueError):
            restrict_path(fine, make_grid(1.0, 1.0 / 3))   # 3 does not divide 8
        with pytest.raises(ValueError):
            restrict_path(fine, make_grid(1.0, 0.0625))    # finer than the path
        with pytest.raises(ValueError):
            restrict_path(fine, make_grid(0.5, 0.125))     # another horizon

    def test_identity_factor(self):
        fine = generate_path(SeedSpec(6), make_grid(1.0, 0.125))
        assert restrict_path(fine, make_grid(1.0, 0.125)) is fine

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(2, 6),
           st.floats(1e-3, 1.0), st.integers(0, 2**64 - 1))
    def test_restrictions_nest_bitwise(self, a, b, blocks, h, seed):
        T = a * b * blocks * h
        fine = generate_path(SeedSpec(seed), make_grid(T, h), num_channels=2)
        middle, coarse = make_grid(T, T / (b * blocks)), make_grid(T, T / blocks)
        twice = restrict_path(restrict_path(fine, middle), coarse)
        once = restrict_path(fine, coarse)
        np.testing.assert_array_equal(twice.cumulative, once.cumulative)
        np.testing.assert_array_equal(twice.increments, once.increments)
        assert twice.grid == once.grid == coarse

    def test_solve_accepts_twice_restricted_path(self):
        # coarsening h = 0.1 by 3 twice used to give h = 0.9000000000000001,
        # which solve rejected as a foreign grid
        fine = generate_path(SeedSpec(11), make_grid(1.8, 0.1))
        coarse = make_grid(1.8, 0.9)
        twice = restrict_path(restrict_path(fine, make_grid(1.8, 0.3)), coarse)
        once = restrict_path(fine, coarse)
        cfg = SolverConfig(alpha=0.8, grid=coarse, stochastic=True)
        model = linear_test(lam=0.5, sigma0=0.3)
        np.testing.assert_array_equal(solve(model, cfg, twice).states,
                                      solve(model, cfg, once).states)

