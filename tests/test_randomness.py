"""Haar sampling, decompositions, and moment statistics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ergolab import (
    hypersphere_moments,
    randomness,
    sample_decomposition,
    sample_haar_unitary,
    sample_random_state,
    state_weight_statistics,
    substream,
    unitary_block_statistics,
)
from ergolab.montecarlo import check_ranks
from ergolab.randomness import (
    _CHUNK_ENTRIES,
    GATE_SIGMA,
    _moment_sums,
    _PowerSums,
    _state_chunks,
    ginibre_matrices,
    ginibre_matrix,
    haar_from_ginibre,
    mean_stderr,
    random_states,
    sample_haar_frame,
)

from support import (
    gaussian_rows_reference,
    gram_maxima,
    hypersphere_reference,
    lemma_rows_reference,
    read_rows_reference,
    state_weights_reference,
    unitary_block_reference,
)

# (dim, rank, samples) of the streamed-moment checks: D = 1, rank = dim,
# D = 2, D = 257 with 3 of its coordinates read, sample counts that are not
# multiples of the chunk, and 200 000 samples at D = 8 and 100 000 at
# D = 100 (13 and 31 chunks).
LEMMA_CASES = [(1, 1, 10001), (1, 1, 5000), (6, 6, 4099), (2, 1, 4097), (257, 3, 5003),
               (8, 2, 20000), (8, 2, 200_000), (100, 10, 9000), (100, 10, 100_000)]


class CountingGenerator:
    """A generator that counts the entries of its Gaussian and gamma fills,
    together with those of the children it spawns; it has no other draw."""

    def __init__(self, rng, counts=None):
        self.rng = rng
        self.counts = {"normal": 0, "gamma": 0} if counts is None else counts

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        self.counts["normal"] += out.size
        return out

    def standard_gamma(self, shape, size):
        out = self.rng.standard_gamma(shape, size)
        self.counts["gamma"] += out.size
        return out

    def spawn(self, n):
        return [CountingGenerator(child, self.counts) for child in self.rng.spawn(n)]


class TestSubstream:
    def test_reproducible(self):
        a = substream(7, 3).standard_normal(5)
        b = substream(7, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_paths_independent(self):
        a = substream(7, 3).standard_normal(5)
        b = substream(7, 4).standard_normal(5)
        assert not np.allclose(a, b)

    def test_default_rng_of_the_seed_list(self):
        a = substream(7, 1, 2**40).standard_normal(5)
        np.testing.assert_array_equal(a, np.random.default_rng([7, 1, 2**40]).standard_normal(5))


class TestBlockDraws:
    """The stacked draws ``run`` fills in place, bit for bit the complex
    arrays formed from one generator's parts at a time, each generator's
    Ginibre matrix before its state."""

    @pytest.mark.parametrize("dim", [1, 2, 8, 17, 64])
    def test_stacks_equal_one_draw_at_a_time(self, dim):
        rngs = [substream(5, 1, t) for t in range(9)]
        ginibre, states = ginibre_matrices(dim, rngs), random_states(dim, rngs)
        for t in range(9):
            rng = substream(5, 1, t)
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            z /= math.sqrt(2.0)
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v /= np.linalg.norm(v, axis=-1, keepdims=True)
            assert ginibre[t].tobytes() == z.tobytes()
            assert states[t].tobytes() == v.tobytes()

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            ginibre_matrices(0, [substream(5, 0)])
        with pytest.raises(ValueError):
            random_states(0, [substream(5, 0)])


class TestHaarUnitary:
    def test_unitarity(self):
        u = sample_haar_unitary(16, substream(1, 0))
        assert np.abs(u.conj().T @ u - np.eye(16)).max() < 1e-10

    def test_dimension_one_is_phase(self):
        u = sample_haar_unitary(1, substream(1, 1))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            sample_haar_unitary(0, substream(1, 2))

    def test_determinism(self):
        u1 = sample_haar_unitary(8, substream(2, 0))
        u2 = sample_haar_unitary(8, substream(2, 0))
        np.testing.assert_array_equal(u1, u2)

    def test_first_entry_moment(self):
        # |U_00|^2 has mean 1/D; 2000 samples, 5 standard errors
        n, dim = 2000, 16
        vals = np.array([
            abs(sample_haar_unitary(dim, substream(3, i))[0, 0]) ** 2
            for i in range(n)
        ])
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 1 / dim) < 5 * se

    def test_stack_is_the_phase_fixed_qr_of_each_matrix(self):
        rng = substream(3, 99)
        stack = np.stack([ginibre_matrix(6, rng) for _ in range(4)])
        unitaries = haar_from_ginibre(stack)
        for z, u in zip(stack, unitaries):
            q, r = np.linalg.qr(z)
            phases = r.diagonal() / np.abs(r.diagonal())
            np.testing.assert_array_equal(u, q @ np.diag(phases))
        again = substream(3, 99)
        for u in unitaries:
            np.testing.assert_array_equal(sample_haar_unitary(6, again), u)


class TestRandomState:
    def test_unit_norm(self):
        v = sample_random_state(50, substream(4, 0))
        assert abs(np.linalg.norm(v) - 1) < 1e-12

    def test_dimension_one_full_weight(self):
        v = sample_random_state(1, substream(4, 1))
        assert abs(abs(v[0]) ** 2 - 1) < 1e-12

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            sample_random_state(0, substream(4, 2))


class TestProjectionAndDecomposition:
    """Decompositions as lists of (D, d) basis arrays."""

    def test_rank_sum_mismatch_rejected(self):
        # the check run configs and compute-l's --dims go through
        with pytest.raises(ValueError, match="sum"):
            check_ranks((3,), 6)

    def test_blocks_of_one_haar_unitary(self):
        dec = sample_decomposition([2, 3, 1], substream(5, 0))
        np.testing.assert_array_equal(np.hstack(dec),
                                      sample_haar_unitary(6, substream(5, 0)))

    def test_full_cell_carries_everything(self):
        dec = sample_decomposition([6], substream(5, 1))
        v = sample_random_state(6, substream(5, 2))
        w = np.sum(np.abs(dec[0].conj().T @ v) ** 2)
        assert abs(w - 1) < 1e-10

    def test_rank_one_cells(self):
        dec = sample_decomposition([1] * 5, substream(5, 3))
        assert [c.shape for c in dec] == [(5, 1)] * 5

    def test_completeness_per_sample(self):
        dec = sample_decomposition([8] * 8, substream(5, 4))
        v = sample_random_state(64, substream(5, 5))
        weights = [float(np.sum(np.abs(c.conj().T @ v) ** 2)) for c in dec]
        assert abs(sum(weights) - 1) < 1e-10
        stacked = np.hstack(dec)
        assert np.abs(stacked.conj().T @ stacked - np.eye(64)).max() < 1e-10

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ValueError):
            sample_decomposition([0, 4], substream(5, 6))


class TestWeightStatistics:
    def test_gates_at_moderate_samples(self):
        stats = state_weight_statistics(100, 10, 20_000, substream(6, 0))
        assert stats["mean"]["pass"]
        assert stats["variance"]["pass"]
        assert stats["mean"]["target"] == pytest.approx(0.1)
        assert stats["variance"]["target"] == pytest.approx(9 / 10100)

    def test_full_rank_degenerate_weight(self):
        stats = state_weight_statistics(12, 12, 500, substream(6, 1))
        assert stats["mean"]["estimate"] == pytest.approx(1.0, abs=1e-12)

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            state_weight_statistics(4, 5, 100, substream(6, 2))


class TestMomentSampleCounts:
    @pytest.mark.parametrize("samples", [0, 1])
    def test_fewer_than_two_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="at least 2 samples"):
            state_weight_statistics(8, 2, samples, substream(6, 3))
        with pytest.raises(ValueError, match="at least 2 samples"):
            hypersphere_moments(8, samples, substream(7, 2))

    def test_mean_stderr(self):
        assert mean_stderr(np.array([0.25])) == (0.25, 0.0)
        mean, stderr = mean_stderr(np.array([1.0, 2.0, 4.0]))
        assert mean == pytest.approx(7 / 3)
        assert stderr == pytest.approx(math.sqrt(7 / 3 / 3))


class TestHypersphereMoments:
    def test_targets(self):
        stats = hypersphere_moments(50, 1000, substream(7, 0))
        assert stats["mean"]["target"] == pytest.approx(0.01)
        assert stats["variance"]["target"] == pytest.approx(49 / 127500)
        assert stats["covariance"]["target"] == pytest.approx(-1 / 127500)

    def test_gates_at_moderate_samples(self):
        stats = hypersphere_moments(50, 20_000, substream(7, 1))
        assert stats["mean"]["pass"]
        assert stats["variance"]["pass"]
        assert stats["covariance"]["pass"]


class TestChunkedDraws:
    """The moment estimates draw and sum a chunk of rows at a time: the
    read coordinates and the chi-square tails must each be one whole fill's
    to the bit, and the records those of two passes over every sample."""

    @pytest.mark.parametrize("chunk_entries", [_CHUNK_ENTRIES, 1000])
    @pytest.mark.parametrize("dim, rank, samples", [
        (1, 1, 10001), (3, 1, 4097), (6, 6, 4099), (100, 10, 9000), (257, 3, 5003)])
    def test_chunks_are_one_whole_fill(self, monkeypatch, chunk_entries, dim, rank, samples):
        monkeypatch.setattr(randomness, "_CHUNK_ENTRIES", chunk_entries)
        chunks = list(_state_chunks(dim, rank, samples, substream(9, dim)))
        rows = max(1, chunk_entries // min(dim, max(rank, 2)))
        assert [len(z) for z, _ in chunks] == [min(rows, samples - k)
                                               for k in range(0, samples, rows)]
        whole, tail = read_rows_reference(dim, rank, samples, substream(9, dim))
        assert np.concatenate([z for z, _ in chunks]).tobytes() == whole.tobytes()
        assert np.concatenate([t for _, t in chunks]).tobytes() == tail.tobytes()

    @pytest.mark.parametrize("dim, rank, samples", [(257, 3, 5003), (100, 10, 9000),
                                                    (12, 12, 4099), (2, 1, 4097)])
    def test_draws_only_the_read_coordinates(self, dim, rank, samples):
        # a return to whole D-vectors fails here: 2D normals a state
        rng = CountingGenerator(substream(9, 1))
        _moment_sums(dim, rank, samples, rng)
        read = min(dim, max(rank, 2))
        assert rng.counts == {"normal": samples * 2 * read,
                              "gamma": samples if read < dim else 0}

    @staticmethod
    def assert_records_match(streamed, reference):
        assert streamed.keys() == reference.keys()
        for key, value in reference.items():
            if not isinstance(value, dict):
                assert streamed[key] == value
                continue
            got = streamed[key]
            assert got["pass"] is value["pass"], key
            for field in ("estimate", "stderr", "target"):
                assert got[field] == pytest.approx(value[field], rel=1e-12, abs=0), (key, field)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("dim, rank, samples", LEMMA_CASES)
    def test_records_equal_the_two_pass_reference(self, dim, rank, samples, seed):
        self.assert_records_match(
            state_weight_statistics(dim, rank, samples, substream(seed, 0)),
            state_weights_reference(dim, rank, *read_rows_reference(dim, rank, samples,
                                                                    substream(seed, 0))))
        self.assert_records_match(
            hypersphere_moments(dim, samples, substream(seed, 1)),
            hypersphere_reference(dim, *read_rows_reference(dim, 1, samples,
                                                            substream(seed, 1))))

    @pytest.mark.parametrize("dim, rank, samples", LEMMA_CASES)
    def test_halved_records_equal_the_two_pass_reference(self, dim, rank, samples):
        # one set of states, half from (seed, 0) and half from (seed, 1),
        # feeds both records
        seed = 3
        state, sphere, _ = randomness.lemma_statistics(dim, rank, samples, 1, seed)
        rows = lemma_rows_reference(dim, rank, samples, seed)
        self.assert_records_match(state, state_weights_reference(dim, rank, *rows))
        self.assert_records_match(sphere, hypersphere_reference(dim, *rows))

    @pytest.mark.parametrize("dim, rank, samples", [(12, 3, 20000), (3, 1, 20000),
                                                    (100, 10, 10000), (8, 2, 20000)])
    def test_read_coordinates_agree_with_the_full_vector_route(self, dim, rank, samples):
        # the chi-square tail stands for the unread squares in law: every
        # record of the package's draw sits within 5 pooled standard errors
        # of the same record over whole Gaussian D-vectors, on another
        # substream
        full = gaussian_rows_reference(dim, samples, substream(11, 1))
        pairs = [(state_weight_statistics(dim, rank, samples, substream(11, 0)),
                  state_weights_reference(dim, rank, full)),
                 (hypersphere_moments(dim, samples, substream(11, 2)),
                  hypersphere_reference(dim, full))]
        for thin, whole in pairs:
            for key in ("mean", "variance", "covariance"):
                if key not in whole:
                    continue
                a, b = thin[key], whole[key]
                assert a["target"] == pytest.approx(b["target"], rel=1e-15)
                pooled = math.hypot(a["stderr"], b["stderr"])
                assert abs(a["estimate"] - b["estimate"]) <= GATE_SIGMA * pooled, key


class TestPowerSums:
    @pytest.mark.parametrize("samples", [2, 3, 1001])
    @pytest.mark.parametrize("paired", [False, True])
    def test_merged_halves_equal_one_pass(self, samples, paired):
        # values above their shifts, so no sum cancels
        u, v = substream(10, samples).uniform(1.0, 2.0, size=(2, samples))
        shifts = (0.5, 0.25) if paired else (0.5,)
        whole, first, second = (_PowerSums(*shifts) for _ in range(3))
        half = samples // 2
        for sums, part in [(whole, slice(None)), (first, slice(half)),
                           (second, slice(half, None))]:
            sums.add(u[part], v[part] if paired else None)
        first += second
        assert first.n == whole.n == samples
        assert first.sums == pytest.approx(whole.sums, rel=1e-12, abs=0)
        assert np.count_nonzero(whole.sums) == (15 if paired else 5)


class TestHaarFrame:
    def test_first_columns_of_the_phase_fixed_qr(self):
        # Gram-Schmidt runs column by column: the frame of a D × d Ginibre
        # matrix is the first d columns of the unitary of any square
        # Ginibre matrix that begins with it
        z = ginibre_matrix(9, substream(8, 5))
        for cols in (1, 4, 9):
            np.testing.assert_allclose(haar_from_ginibre(z[:, :cols]),
                                       haar_from_ginibre(z)[:, :cols], atol=1e-13)

    def test_draws_a_ginibre_block(self):
        frame = sample_haar_frame(7, 3, substream(8, 6))
        assert frame.shape == (7, 3)
        np.testing.assert_array_equal(frame,
                                      haar_from_ginibre(ginibre_matrix(7, substream(8, 6), 3)))
        assert np.abs(frame.conj().T @ frame - np.eye(3)).max() < 1e-13

    def test_block_gram_moments_are_the_haar_closed_forms(self):
        # W = Q Q^H is a Haar rank-d projector: E|W_ij|^2 = d(D-d)/(D(D^2-1))
        # for i != j and Var W_ii = d(D-d)/(D^2(D+1)).  Entries of one member
        # are dependent, so each member contributes one mean.
        dim, rank, members = 6, 2, 4000
        rng = substream(8, 7)
        off, diag = np.empty((2, members))
        offdiag = ~np.eye(dim, dtype=bool)
        for t in range(members):
            q = sample_haar_frame(dim, rank, rng)
            w = q @ q.conj().T
            off[t] = (np.abs(w) ** 2)[offdiag].mean()
            diag[t] = ((w.diagonal().real - rank / dim) ** 2).mean()
        for samples, target in [(off, rank * (dim - rank) / (dim * (dim**2 - 1))),
                                (diag, rank * (dim - rank) / (dim**2 * (dim + 1)))]:
            estimate, stderr = mean_stderr(samples)
            assert abs(estimate - target) <= GATE_SIGMA * stderr


class TestUnitaryBlockStatistics:
    def test_two_by_two_closed_form(self):
        # at D=2, d=1 the worst diagonal deviation is (u - 1/2)^2 with u
        # uniform on [0, 1]: mean 1/12
        stats = unitary_block_statistics(2, 1, 2000, substream(8, 0))
        rec = stats["max_diag_dev"]
        assert abs(rec["estimate"] - 1 / 12) < 5 * rec["stderr"]

    def test_finite_and_reproducible(self):
        a = unitary_block_statistics(64, 8, 50, substream(8, 1))
        b = unitary_block_statistics(64, 8, 50, substream(8, 1))
        assert a == b
        assert math.isfinite(a["max_offdiag"]["estimate"])
        assert math.isfinite(a["max_diag_dev"]["estimate"])

    def test_rank_equal_dim_rejected(self):
        with pytest.raises(ValueError):
            unitary_block_statistics(4, 4, 10, substream(8, 2))

    def test_thin_frames_agree_with_the_full_unitary_route(self):
        dim, rank, ensemble = 8, 3, 3000
        thin = unitary_block_statistics(dim, rank, ensemble, substream(8, 3))
        full = unitary_block_reference(dim, rank, ensemble, substream(8, 4))
        for key in ("max_offdiag", "max_diag_dev"):
            a, b = thin[key], full[key]
            assert a["threshold"] == b["threshold"]
            pooled = math.hypot(a["stderr"], b["stderr"])
            assert abs(a["estimate"] - b["estimate"]) <= 5 * pooled

    def test_chunked_maxima_equal_the_whole_gram(self):
        dim, rank, ensemble = 400, 100, 3
        assert -(-dim // (_CHUNK_ENTRIES // dim)) == 5  # row chunks per member
        rng = substream(8, 8)
        maxima = np.array([gram_maxima(sample_haar_frame(dim, rank, rng).conj().T, rank / dim)
                           for _ in range(ensemble)])
        stats = unitary_block_statistics(dim, rank, ensemble, substream(8, 8))
        for key, column in [("max_offdiag", 0), ("max_diag_dev", 1)]:
            assert stats[key]["estimate"] == pytest.approx(maxima[:, column].mean(), rel=1e-14)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    @pytest.mark.parametrize("sizes", [
        ["--dim", "1000", "--rank", "10", "--samples", "20000", "--ensemble", "20"],
        ["--dim", "8", "--rank", "2", "--samples", "4000000", "--ensemble", "2"],
    ])
    def test_large_dimension_peak_memory(self, tmp_path, sizes):
        # On a 2-core x86-64 VM with BLAS at one thread each run peaks at
        # about 45 MiB.  Keeping every sample and 4096-row batch buffers, they
        # peaked at 109 MiB and 257 MiB.
        script = (
            "import sys\n"
            "from ergolab.cli import main\n"
            "assert main(['verify-lemmas', *sys.argv[1:], '--out', 'lemmas.json']) == 0\n"
            "print([line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')][0])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, *sizes], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120, check=True)
        assert int(done.stdout.split()[-1]) / 1024 < 80
