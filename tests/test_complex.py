import numpy as np
import pytest

from conftest import is_real_decomposition, parse_monomial
from tdec.algebra import Polynomial, Shape
from tdec.decompose import DecomposeOptions, decompose, verify
from tdec.files import synthesize


class TestComplexDecompositions:
    def test_real_cubic_with_imaginary_roots(self):
        # (1 + ix)^3 + (1 - ix)^3 = 2 - 6x^2: real data, roots at +-i
        shape = Shape(dims=(1,), degrees=(3,))
        x = parse_monomial("a1", shape)
        T = Polynomial(shape, {parse_monomial("1", shape): 2.0, x * x: -6.0})
        dec = decompose(T, DecomposeOptions(seed=0))
        assert dec.rank == 2
        assert dec.residual < 1e-10
        assert not is_real_decomposition(dec)
        roots = sorted(complex(p.coords[0][0]).imag for _, p in dec.terms)
        np.testing.assert_allclose(roots, [-1.0, 1.0], atol=1e-8)
        np.testing.assert_allclose(
            sorted(complex(w).real for w in dec.weights()), [1.0, 1.0], atol=1e-8
        )

    def test_complex_synthetic_round_trip(self):
        tf, truth = synthesize((2, 2, 2), (1, 1, 1), rank=3, seed=21, fld="complex")
        dec = decompose(tf.tensor, DecomposeOptions(seed=0))
        assert dec.rank == 3
        assert dec.residual < 1e-8
        got = sorted(np.round(np.asarray(dec.weights(), dtype=complex), 6),
                     key=lambda z: (z.real, z.imag))
        want = sorted(np.round(np.asarray(truth.decomposition.weights(), dtype=complex), 6),
                      key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_real_input_keeps_real_output(self):
        tf, _ = synthesize((2, 2), (2, 1), rank=2, seed=3)
        dec = decompose(tf.tensor, DecomposeOptions(seed=0))
        assert is_real_decomposition(dec)
        assert verify(tf.tensor, dec) < 1e-8


# formats with affine dims and degrees, and the planted ranks each recovers
COMPLEX_SWEEP = [
    ((3, 3, 3), (1, 1, 1), (2, 3, 4)),
    ((2, 2, 2), (1, 1, 1), (2, 3)),
    ((2, 2, 3), (1, 1, 1), (3, 4)),
    ((3, 3, 5), (1, 1, 1), (5, 6)),
    ((2, 2), (2, 2), (3, 4, 5)),
    ((2, 3), (2, 1), (2, 3)),
    ((2, 2, 2), (1, 1, 2), (4, 5)),
    ((1, 1, 1), (2, 2, 2), (2, 3)),
]


@pytest.mark.parametrize(
    "dims,degrees,rank",
    [(d, g, r) for d, g, ranks in COMPLEX_SWEEP for r in ranks],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_complex_round_trips(dims, degrees, rank, seed):
    # complex tables go through the same real mix as real ones
    tf, _ = synthesize(dims, degrees, rank=rank, seed=seed, fld="complex")
    dec = decompose(tf.tensor, DecomposeOptions(seed=seed))
    assert dec.rank == rank
    assert dec.residual < 1e-9
