"""Sparsity-aware simultaneous orthogonal matching pursuit (SOMP).

Greedy joint-sparse support recovery over the multicoset measurement model:
given the coset spectra Y (P x N) and a measurement matrix A (P x L), pick
one column per iteration, jointly re-fit the selected columns by least
squares, subtract, and repeat until the prescribed sparsity is reached. The
true occupancy count is assumed known (sparsity-aware operation).

``somp_detect`` takes a batch of spectra (B x P x N) sharing A and the
sparsity and runs the greedy steps for all samples at once, with stacked
SVD, QR, solves and matrix products. It returns two arrays: the (B, k)
support, 0-based column indices of the matrix in selection order, and the
(B, P, N) residual of the final fit. Each sample's support and residual are
bit-identical to those of its batch of one (``y[None]``): every stacked
product keeps the per-sample operand shapes and layouts.

Atoms are selected rank-aware, in place of the textbook rule (largest
row-l2 norm of A^H R; Tropp, Gilbert and Strauss 2006): the projected,
re-normalized atoms are correlated against the dominant subspace of the
residual, truncated to the remaining sparsity. Because the snapshots give
the row-sparse spectra full row rank, this rule recovers every identifiable
noiseless support (sparsity below the coset count, full-spark matrix)
exactly, and the subspace truncation keeps it the stronger rule under noise
as well.

Support indices are columns of the matrix that was passed in; converting
them to physical band indices is the caller's concern (see
``multicoset.band_order``).
"""

from __future__ import annotations

import numpy as np

# Tikhonov ridge on the normal equations, relative to the Gram diagonal;
# submatrices of the roots-of-unity measurement matrix are well conditioned,
# this only guards the degenerate selections of the over-sparse regime.
_LS_RIDGE = 1e-12

# singular values below this fraction of the largest are excluded from the
# residual's column-space basis
_RANK_TOL = 1e-10


def _least_squares(sub: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ridge-guarded normal-equation solve, stacked over the leading axis."""
    sub_h = sub.conj().swapaxes(-1, -2)
    gram = sub_h @ sub
    ridge = _LS_RIDGE * np.abs(np.diagonal(gram, axis1=-2, axis2=-1)).mean(axis=-1)
    gram += np.maximum(ridge, np.finfo(float).tiny)[:, None, None] * np.eye(sub.shape[-1])
    return np.linalg.solve(gram, sub_h @ y)


def somp_detect(coset_spectra: np.ndarray, matrix: np.ndarray,
                sparsity: int) -> tuple[np.ndarray, np.ndarray]:
    """Recover the ``sparsity`` strongest columns jointly explaining Y, for
    each sample of the batch ``coset_spectra`` (B x P x N): the (B, sparsity)
    column indices in selection order and the (B, P, N) residual, each row
    equal to that sample's batch of one.

    With sparsity above the number of cosets the least-squares subproblem is
    underdetermined; the support is still produced (best effort).
    """
    a = np.asarray(matrix)
    y = np.asarray(coset_spectra)
    if a.ndim != 2 or y.ndim != 3 or a.shape[0] != y.shape[1]:
        raise ValueError(f"incompatible shapes: matrix {a.shape}, spectra {np.shape(coset_spectra)}")
    n_cols = a.shape[1]
    if sparsity < 0 or sparsity > n_cols:
        raise ValueError(f"sparsity must lie in [0, {n_cols}], got {sparsity}")

    residual = y
    selected = np.empty((y.shape[0], sparsity), dtype=np.intp)
    samples = np.arange(y.shape[0])[:, None]
    for step in range(sparsity):
        chosen = selected[:, :step]
        scores = _rank_aware_scores(a, residual, chosen, sparsity - step)
        scores[samples, chosen] = -np.inf
        selected[:, step] = np.argmax(scores, axis=1)  # argmax takes the lowest index on ties
        sub = _columns(a, selected[:, :step + 1])
        residual = y - sub @ _least_squares(sub, y)
    return selected, residual if sparsity else y.copy()


def _columns(a: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Per-sample column selections ``a[:, selected[b]]`` stacked to
    (B, P, k), each with the Fortran layout that ``a[:, cols]`` has.
    """
    return a.T[selected].swapaxes(-1, -2)


def _rank_aware_scores(a: np.ndarray, residual: np.ndarray, selected: np.ndarray,
                       remaining: int) -> np.ndarray:
    """Correlation of each projected-normalized atom with the residual's
    dominant column space, truncated to the number of atoms still to be
    selected so noise directions never flood the basis. Scale-invariant in
    the residual by construction.
    """
    u, s, _ = np.linalg.svd(residual, full_matrices=False)
    rank = (s > _RANK_TOL * s[:, :1]).sum(axis=1)
    # a basis spanning the whole measurement space scores every atom equally,
    # so always leave at least one dimension out (only binds when the
    # requested sparsity reaches the coset count, where the support is not
    # identifiable anyway)
    rank = np.minimum(rank, min(remaining, residual.shape[1] - 1))
    if selected.shape[1]:
        q, _ = np.linalg.qr(_columns(a, selected))
        atoms = a - q @ (q.conj().swapaxes(-1, -2) @ a)
    else:
        atoms = np.broadcast_to(a, residual.shape[:1] + a.shape)
    norms = np.linalg.norm(atoms, axis=-2)
    safe = np.where(norms > 1e-12, norms, np.inf)
    scores = np.zeros(norms.shape)
    # one stacked product per rank: BLAS rounds a row of basis^H @ atoms
    # differently when the row count changes, so padding every sample to the
    # largest rank would move near-tied scores
    for r in set(rank.tolist()) - {0}:
        rows = np.flatnonzero(rank == r)
        basis_h = u[rows, :, :r].conj().swapaxes(-1, -2)
        scores[rows] = (np.abs(basis_h @ atoms[rows]) ** 2).sum(axis=-2) / safe[rows]**2
    return scores
