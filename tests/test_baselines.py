import numpy as np
import pytest

from ftlwss import baselines
from ftlwss import multicoset as mc


def matrix_for(offsets, n_subbands=16):
    pattern = mc.CosetPattern(tuple(offsets), n_subbands, 1.0)
    return mc.build_measurement_matrix(pattern)


def row_sparse_spectra(matrix, support, rng, n_snapshots=32):
    n_cols = matrix.shape[1]
    x = np.zeros((n_cols, n_snapshots), dtype=complex)
    for row in support:
        x[row] = rng.normal(size=n_snapshots) + 1j * rng.normal(size=n_snapshots)
    return matrix @ x


class TestSompBasics:
    def test_zero_sparsity(self):
        a = matrix_for(range(6))
        y = np.ones((6, 8), dtype=complex)
        batch = y[None]
        support, residual = baselines.somp_detect(batch, a, 0)
        assert support.shape == (1, 0)
        # the residual is the spectra, in a new array
        assert np.array_equal(residual, batch) and not np.shares_memory(residual, batch)

    def test_single_atom_found_in_one_iteration(self):
        rng = np.random.default_rng(0)
        a = matrix_for(range(6))
        y = row_sparse_spectra(a, [9], rng)
        support, residual = baselines.somp_detect(y[None], a, 1)
        assert support.tolist() == [[9]]
        assert np.linalg.norm(residual[0]) < 1e-8 * np.linalg.norm(y)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="incompatible shapes"):
            baselines.somp_detect(np.zeros((1, 5, 4)), matrix_for(range(6)), 2)
        # one sample is the batch y[None], not a (P, N) array
        with pytest.raises(ValueError, match="incompatible shapes"):
            baselines.somp_detect(np.zeros((6, 4)), matrix_for(range(6)), 2)

    def test_rejects_bad_sparsity(self):
        a = matrix_for(range(6))
        with pytest.raises(ValueError, match="sparsity"):
            baselines.somp_detect(np.zeros((1, 6, 4)), a, 17)
        with pytest.raises(ValueError, match="sparsity"):
            baselines.somp_detect(np.zeros((1, 6, 4)), a, -1)


class TestExactRecovery:
    def test_rank_aware_exact_below_coset_count(self):
        # identifiable regime: sparsity strictly below the coset count on the
        # full-spark consecutive pattern
        rng = np.random.default_rng(1)
        a = matrix_for(range(6))
        for _ in range(120):
            k = int(rng.integers(1, 6))
            support = np.sort(rng.choice(16, size=k, replace=False))
            y = row_sparse_spectra(a, support, rng)
            got, _ = baselines.somp_detect(y[None], a, k)
            assert np.array_equal(np.sort(got[0]), support)

    def test_sparsity_at_coset_count_is_not_identifiable(self):
        # any P independent columns of a P-row matrix fit the measurements
        # exactly, so K = P support recovery carries no information
        rng = np.random.default_rng(2)
        a = matrix_for(range(6))
        support = np.sort(rng.choice(16, size=6, replace=False))
        y = row_sparse_spectra(a, support, rng)
        wrong = [c for c in range(16) if c not in support][:6]
        sub = a[:, wrong]
        coef = np.linalg.lstsq(sub, y, rcond=None)[0]
        assert np.linalg.norm(y - sub @ coef) < 1e-9 * np.linalg.norm(y)

    def test_over_sparse_gives_k_columns_and_poor_recovery(self):
        rng = np.random.default_rng(3)
        a = matrix_for(range(6))
        exact = 0
        for _ in range(60):
            support = np.sort(rng.choice(16, size=9, replace=False))
            y = row_sparse_spectra(a, support, rng)
            got, _ = baselines.somp_detect(y[None], a, 9)
            assert got.shape == (1, 9)
            exact += int(np.array_equal(np.sort(got[0]), support))
        assert exact / 60 < 0.5


class TestInvariants:
    def test_residual_norm_non_increasing(self):
        rng = np.random.default_rng(4)
        a = matrix_for(range(6))
        y = row_sparse_spectra(a, [2, 5, 11], rng) \
            + 0.1 * (rng.normal(size=(6, 32)) + 1j * rng.normal(size=(6, 32)))
        norms = [np.linalg.norm(y)]
        for k in range(1, 7):
            norms.append(np.linalg.norm(baselines.somp_detect(y[None], a, k)[1][0]))
        assert all(b <= a_ + 1e-9 for a_, b in zip(norms, norms[1:]))

    def test_scale_invariant_support(self):
        rng = np.random.default_rng(5)
        a = matrix_for(range(6))
        y = row_sparse_spectra(a, [1, 8], rng) \
            + 0.05 * (rng.normal(size=(6, 32)) + 1j * rng.normal(size=(6, 32)))
        base, _ = baselines.somp_detect(y[None], a, 2)
        for c in (3.0, -2.0, 1j * 0.25, 0.5 - 0.5j):
            scaled, _ = baselines.somp_detect(c * y[None], a, 2)
            assert np.array_equal(scaled, base)

    def test_full_sparsity_noiseless_residual_vanishes(self):
        # selecting P independent columns spans the measurement space, so
        # the final residual vanishes regardless of which columns were picked
        rng = np.random.default_rng(6)
        a = matrix_for(range(6))
        y = row_sparse_spectra(a, np.sort(rng.choice(16, 6, replace=False)), rng)
        _, residual = baselines.somp_detect(y[None], a, 6)
        assert np.linalg.norm(residual[0]) < 1e-8 * np.linalg.norm(y)

    def test_lowest_index_tie_break(self):
        # duplicate columns force a tie; the lower index must win
        a = np.hstack([matrix_for(range(4), n_subbands=8)] * 2)  # columns repeat
        rng = np.random.default_rng(7)
        x = np.zeros((16, 8), dtype=complex)
        x[3] = rng.normal(size=8) + 1j * rng.normal(size=8)
        y = a @ x
        support, _ = baselines.somp_detect(y[None], a, 1)
        assert support.tolist() == [[3]]  # not its duplicate 11


# ---------------------------------------------------------------------------
# Batched SOMP against the per-sample implementation it replaced
# ---------------------------------------------------------------------------

def _per_sample_least_squares(sub, y):
    gram = sub.conj().T @ sub
    ridge = baselines._LS_RIDGE * float(np.abs(np.diag(gram)).mean())
    gram += max(ridge, np.finfo(float).tiny) * np.eye(sub.shape[1])
    return np.linalg.solve(gram, sub.conj().T @ y)


def _per_sample_rank_aware_scores(a, residual, selected, remaining):
    u, s, _ = np.linalg.svd(residual, full_matrices=False)
    rank = int((s > baselines._RANK_TOL * (s[0] if s.size else 1.0)).sum())
    rank = min(rank, remaining, residual.shape[0] - 1)
    if rank == 0:
        return np.zeros(a.shape[1])
    basis = u[:, :rank]
    if selected:
        q, _ = np.linalg.qr(a[:, selected])
        atoms = a - q @ (q.conj().T @ a)
    else:
        atoms = a
    norms = np.linalg.norm(atoms, axis=0)
    safe = np.where(norms > 1e-12, norms, np.inf)
    return (np.abs(basis.conj().T @ atoms) ** 2).sum(axis=0) / safe**2


def _per_sample_somp(y, a, sparsity):
    """The one-sample SOMP loop that ran before the batch form, as reference:
    (support, residual norm)."""
    residual = y
    selected = []
    for _ in range(sparsity):
        scores = _per_sample_rank_aware_scores(a, residual, selected, sparsity - len(selected))
        if selected:
            scores[np.asarray(selected)] = -np.inf
        selected.append(int(np.argmax(scores)))
        sub = a[:, selected]
        residual = y - sub @ _per_sample_least_squares(sub, y)
    return selected, float(np.linalg.norm(residual))


class TestBatchedOracle:
    """Supports and residual norms of one batched call equal the per-sample
    loop bit for bit on the evaluation grid of both presets: every target
    domain (T4's 9 or 24 PUs exceed the coset count, where near-tied scores
    are decided by rounding) at every grid SNR, on the complex64 spectra the
    harness stores.
    """

    @pytest.mark.parametrize("preset,count", [("scaled_default", 12), ("full_scale", 3)])
    def test_batch_equals_per_sample_loop(self, preset, count):
        from ftlwss import harness
        config = getattr(harness, preset)()
        a = mc.build_measurement_matrix(config.sensing.pattern())
        for domain in config.domains.target_names():
            k = config.domains.n_active(domain)
            for snr_db in config.evaluation.snr_grid:
                spectra = harness.build_dataset(config, domain, "test", count, snr_db,
                                                keep_spectra=True).coset_spectra
                support, residual = baselines.somp_detect(spectra, a, k)
                for y, cols, res in zip(spectra, support, residual):
                    assert (cols.tolist(), float(np.linalg.norm(res))) == _per_sample_somp(y, a, k)
                # a sample's result is that of its batch of one
                first, first_residual = baselines.somp_detect(spectra[:1], a, k)
                assert np.array_equal(first, support[:1])
                assert np.array_equal(first_residual, residual[:1])

    def test_mixed_ranks_in_one_batch(self):
        # noiseless samples of different true sparsity give residuals of
        # different rank in the same step, so the scores are computed per
        # rank group
        rng = np.random.default_rng(11)
        a = matrix_for(range(6))
        ys = np.stack([row_sparse_spectra(a, rng.choice(16, size=s, replace=False), rng)
                       for s in (1, 2, 3, 4, 5, 5, 3, 1)])
        support, residual = baselines.somp_detect(ys, a, 5)
        for y, cols, res in zip(ys, support, residual):
            assert (cols.tolist(), float(np.linalg.norm(res))) == _per_sample_somp(y, a, 5)
