"""Sandwich bounds for spans of nearly bi-orthogonal sequences."""

import numpy as np
import pytest

from ibap import biorthogonal_bounds

from conftest import rng_for


def triple_with_gram(gram, dim=None):
    """Three unit vectors with the prescribed pairwise scalar products."""
    g = np.asarray(gram, dtype=float)
    chol = np.linalg.cholesky(g)
    vecs = chol.conj().T  # columns have the required Gram matrix
    n = dim or 3
    out = np.zeros((n, 3))
    out[:3, :] = vecs
    return [[out[:, i]] for i in range(3)]


def block_sequences(rng, blocks, max_inner):
    """Per-block triples with pairwise scalar products below max_inner.

    Block k of the ambient space (size 4) carries the k-th member of each
    sequence, so members at different indices are exactly orthogonal.
    """
    n = 4 * blocks
    seqs = [[], [], []]
    for k in range(blocks):
        offd = rng.uniform(-max_inner, max_inner, size=3)
        gram = np.array([[1.0, offd[0], offd[1]],
                         [offd[0], 1.0, offd[2]],
                         [offd[1], offd[2], 1.0]])
        chol = np.linalg.cholesky(gram)
        vecs = chol.conj().T
        for i in range(3):
            v = np.zeros(n)
            v[4 * k: 4 * k + 3] = vecs[:, i]
            seqs[i].append(v)
    return seqs


class TestBiorthogonalBounds:
    def test_pairwise_orthogonal_sequences(self):
        eye = np.eye(6)
        seqs = [[eye[:, 0], eye[:, 3]], [eye[:, 1], eye[:, 4]], [eye[:, 2], eye[:, 5]]]
        report = biorthogonal_bounds(seqs)
        for pair in report.pairs:
            assert pair.norm == 0.0
            assert pair.lower == pair.upper == 0.0
        assert report.condition_sum == 0.0
        assert report.ibap.verdict

    def test_single_triple_with_equal_inner_products(self):
        seqs = triple_with_gram([[1.0, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]])
        report = biorthogonal_bounds(seqs)
        for pair in report.pairs:
            # rank-one projectors: the product norm is exactly the scalar product
            assert abs(pair.sup_inner - 0.1) <= 1e-12
            assert abs(pair.norm - 0.1) <= 1e-12
            assert abs(pair.lower - 0.01) <= 1e-12
            assert pair.lower <= pair.norm + 1e-10 <= pair.upper + 2e-10
        assert abs(report.condition_sum - 3 * np.sqrt(0.1)) <= 1e-10
        assert report.condition_sum < 1.0
        assert report.ibap.verdict

    def test_block_families_satisfy_the_sandwich_and_the_property(self):
        rng = rng_for(600)
        for _ in range(10):
            blocks = int(rng.integers(2, 6))
            seqs = block_sequences(rng, blocks, 0.05)
            report = biorthogonal_bounds(seqs)
            for pair in report.pairs:
                assert pair.lower <= pair.norm + 1e-10
                assert pair.norm <= pair.upper + 1e-10
            assert report.condition_sum < 1.0
            assert report.ibap.verdict

    def test_non_orthonormal_sequence_is_rejected(self):
        eye = np.eye(4)
        bad = [[eye[:, 0], eye[:, 0]], [eye[:, 1], eye[:, 2]], [eye[:, 2], eye[:, 3]]]
        with pytest.raises(ValueError):
            biorthogonal_bounds(bad)

    def test_cross_orthogonality_violation_is_rejected(self):
        eye = np.eye(6)
        mix = (eye[:, 1] + eye[:, 4]) / np.sqrt(2)
        seqs = [[eye[:, 0], eye[:, 3]], [mix, eye[:, 5]], [eye[:, 2], mix]]
        with pytest.raises(ValueError):
            biorthogonal_bounds(seqs)

    def test_wrong_arity_is_rejected(self):
        eye = np.eye(3)
        with pytest.raises(ValueError):
            biorthogonal_bounds([[eye[:, 0]], [eye[:, 1]]])

    def test_length_mismatch_is_rejected(self):
        eye = np.eye(6)
        seqs = [[eye[:, 0]], [eye[:, 1], eye[:, 4]], [eye[:, 2]]]
        with pytest.raises(ValueError):
            biorthogonal_bounds(seqs)

    def test_a_complex_sequence_next_to_real_ones(self):
        # the three spans share the complex field; a phase on the first
        # sequence changes no scalar product's magnitude
        seqs = triple_with_gram([[1.0, 0.1, 0.2], [0.1, 1.0, 0.3], [0.2, 0.3, 1.0]], dim=4)
        real = biorthogonal_bounds(seqs)
        phase = np.exp(0.7j)
        report = biorthogonal_bounds([[phase * v for v in seqs[0]], seqs[1], seqs[2]])
        assert report.family.field == "complex"
        for pair, ref in zip(report.pairs, real.pairs):
            assert pair.pair == ref.pair
            assert abs(pair.sup_inner - ref.sup_inner) <= 1e-15
            assert abs(pair.norm - ref.norm) <= 1e-12
        assert report.ibap.verdict == real.ibap.verdict

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_vectors_of_different_lengths_are_refused(self, bad):
        # refused before any product, naming the sequence
        eye = np.eye(6)
        seqs = [[eye[:4, 0], eye[:4, 3]], [eye[:4, 1], eye[:4, 2]], [eye[:4, 2], eye[:4, 1]]]
        seqs[bad][1] = eye[:, 5]
        with pytest.raises(ValueError, match=rf"^sequence {bad + 1} holds a vector of shape "
                                             r"other than \(4,\), that of the first vector "
                                             "of sequence 1$"):
            biorthogonal_bounds(seqs)
