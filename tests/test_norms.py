"""_plain_norm and _norm against np.linalg.norm, bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from ibap import COMPLEX  # noqa: E402
from ibap.subspaces import _norm, _plain_norm  # noqa: E402

from conftest import FIELDS  # noqa: E402


#: entries whose squares, and those of their quotients by a power of two
#: near the largest of them, neither over- nor underflow
MODERATE = st.one_of(st.just(0.0), st.floats(2.0 ** -200, 2.0 ** 200),
                     st.floats(-(2.0 ** 200), -(2.0 ** -200)))


@st.composite
def vectors(draw, elements):
    """A real or complex vector of the given entries, contiguous or a
    strided view: every other entry, every third from an offset, or reversed."""
    field = draw(st.sampled_from(FIELDS))
    width = 2 if field == COMPLEX else 1
    size = draw(st.integers(0, 40))
    flat = draw(hnp.arrays(np.float64, 3 * width * size, elements=elements))
    x = flat.view(np.complex128) if field == COMPLEX else flat
    return draw(st.sampled_from([x[:size], x[::2], x[1::3], x[::-1]]))


class TestPlainNorm:
    """_plain_norm takes np.linalg.norm's dot products; _norm scales them."""

    @settings(max_examples=300, deadline=None)
    @given(vectors(st.floats(allow_nan=False, allow_infinity=False)))
    def test_plain_norm_is_numpy_norm_bit_for_bit(self, x):
        with np.errstate(over="ignore"):  # both overflow to inf alike
            got, want = _plain_norm(x), np.linalg.norm(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(vectors(MODERATE))
    def test_scaled_norm_is_numpy_norm_where_no_square_overflows(self, x):
        assert np.float64(_norm(x)).tobytes() == np.linalg.norm(x).tobytes()
