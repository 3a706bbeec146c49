"""Wire formats: matrix JSON/CSV, spectra, LCP instances."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmkit import serialize

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestMatrixJson:
    def test_roundtrip_simple(self):
        m = np.array([[-1.0, -1.0], [4.0, 3.0]])
        obj = serialize.matrix_to_obj(m)
        assert obj == {"n": 2, "rows": [[-1.0, -1.0], [4.0, 3.0]]}
        np.testing.assert_array_equal(serialize.matrix_from_obj(obj), m)

    @settings(max_examples=60)
    @given(st.integers(1, 5), st.data())
    def test_roundtrip_exact_via_json_text(self, n, data):
        rows = data.draw(
            st.lists(
                st.lists(finite_floats, min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        m = np.array(rows)
        text = json.dumps(serialize.matrix_to_obj(m))
        back = serialize.matrix_from_obj(json.loads(text))
        np.testing.assert_array_equal(back, m)  # bit-exact via repr round-trip

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            serialize.matrix_from_obj({"n": 2, "rows": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            serialize.matrix_from_obj({"n": 2, "rows": [[1.0], [2.0]]})


class TestMatrixCsv:
    def test_roundtrip(self):
        m = np.array([[0.1, -2.5], [1.0 / 3.0, 7.0]])
        text = "0.1,-2.5\n0.3333333333333333,7.0\n"
        np.testing.assert_array_equal(serialize.matrix_from_csv(text), m)

    def test_seventeen_digit_roundtrip(self):
        m = np.array([[np.pi, np.e], [1.0 / 3.0, np.sqrt(2.0)]])
        # the reprs, and the same values to 17 significant digits
        reprs = "3.141592653589793,2.718281828459045\n0.3333333333333333,1.4142135623730951\n"
        digits17 = "3.1415926535897931,2.7182818284590451\n0.33333333333333331,1.4142135623730951\n"
        for text in (reprs, digits17):
            np.testing.assert_array_equal(serialize.matrix_from_csv(text), m)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            serialize.matrix_from_csv("1.0,2.0\n3.0\n")


class TestSpectrumJson:
    def test_roundtrip(self):
        vals = (complex(1, 2), complex(1, -2), complex(3, 0))
        obj = serialize.values_to_obj(vals)
        assert serialize.values_from_obj(obj) == vals


class TestLcpJson:
    def test_roundtrip(self):
        m = np.eye(2)
        q = np.array([-1.0, 2.0])
        obj = serialize.lcp_instance_to_obj(m, q)
        m2, q2 = serialize.lcp_instance_from_obj(obj)
        np.testing.assert_array_equal(m, m2)
        np.testing.assert_array_equal(q, q2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            serialize.lcp_instance_from_obj(
                {"m": serialize.matrix_to_obj(np.eye(2)), "q": [1.0]}
            )


class TestCanonicalDumps:
    def test_sorted_and_stable(self):
        a = serialize.dumps_canonical({"b": 1, "a": [np.float64(0.5), np.int64(2)]})
        b = serialize.dumps_canonical({"a": [0.5, 2], "b": 1})
        assert a == b

    def test_complex_encoding(self):
        out = json.loads(serialize.dumps_canonical({"v": complex(1, -2)}))
        assert out["v"] == {"re": 1.0, "im": -2.0}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan"),
                                     complex(1.0, float("nan"))])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError):
            serialize.dumps_canonical({"result": {"sigma": [1.0, bad]}})

    def test_write_json_leaves_no_file_on_error(self, tmp_path):
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            serialize.write_json(str(path), {"v": float("nan")})
        assert not path.exists()
