import json
import math
import sys

import numpy as np
import pytest

from trsim import textcols


def texts(blocks: np.ndarray) -> list[str]:
    """Each row of blocks as text, its padding left out."""
    rows = np.empty((len(blocks), blocks.shape[1] + 1), np.uint8)
    rows[:, :-1] = blocks
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, bytes([textcols.PAD])).decode().split("\n")[:-1]


def assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    # in calls of the size the encoder makes, one chunk's float columns
    got = [text for i in range(0, len(values), 8192)
           for text in texts(textcols.floats(values[i:i + 8192], repr))]
    want = list(map(repr, values.tolist()))
    if got != want:
        wrong = [(w, g) for w, g in zip(want, got) if g != w]
        pytest.fail(f"{len(wrong)} of {len(want)} differ from repr: {wrong[:10]}")


def edge_values() -> list[float]:
    tiny, huge = 5e-324, sys.float_info.max
    edges = [0.0, -0.0, tiny, 2 * tiny, 3 * tiny, 1e-320, 2.225073858507201e-308,
             2.2250738585072014e-308, huge, -huge, 9999999999999998.0, 123456789012345678.0,
             0.1, 0.2, 0.3, 1 / 3, 2 / 3, 5e-5, 100.0, 1234.5]
    for edge in (1e-4, 1e16):
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
    edges += [2.0**n for n in range(-1074, 1024)]
    edges += [float(f"1e{n}") for n in range(-323, 309)]
    edges += [np.nextafter(float(f"1e{n}"), side) for n in range(-300, 300) for side in (0, np.inf)]
    # 17 significant digits
    edges += [float(f"{mantissa}e{n}") for mantissa in ("9.999999999999999", "1.0000000000000002",
                                                       "5.551115123125783", "2.9802322387695312")
              for n in range(-10, 20)]
    return edges + [-x for x in edges]


class TestFloats:
    def test_edges_equal_repr(self):
        assert_repr(edge_values())

    def test_random_bit_patterns_equal_repr(self):
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64)
        assert_repr(bits.view(np.float64))
        # and as many with exponents from 1e-4 (biased 1009) to 1e16 (1076),
        # the values on the array path
        exponents = rng.integers(1009, 1077, 100_000).astype(np.uint64) << np.uint64(52)
        assert_repr(((bits & np.uint64(0x800FFFFFFFFFFFFF)) | exponents).view(np.float64))

    def test_escape_writes_the_rest_in_the_values_block(self):
        values = np.array([[math.nan, 1.5, -math.inf], [1e-5, -0.0, math.inf]])
        blocks = textcols.floats(values, json.dumps)
        assert blocks.shape[:2] == values.shape
        assert texts(blocks.reshape(6, -1)) == [
            "NaN", "1.5", "-Infinity", "1e-05", "-0.0", "Infinity"
        ]


class TestInts:
    @pytest.mark.parametrize("values", [[0], [7, 0, 12], [9999, 10000, 0, 2**63 - 1],
                                        list(range(0, 10**6, 997))])
    def test_written_as_str(self, values):
        assert texts(textcols.ints(np.array(values))) == list(map(str, values))


def test_labels_are_padded_utf8():
    table = textcols.labels(["a", "ü-1", ""])
    rows = table.take(np.array([1, 0, 2, 1])).view(np.uint8).reshape(4, -1)
    assert texts(rows) == ["ü-1", "a", "", "ü-1"]


@pytest.mark.parametrize("labels", [
    [], [""], ["\x00"], ["a", "ü-1", "", "nul\x00", 'q"x'], ["x\x00y", "\x00\x00", "z"],
])
def test_label_table_keeps_every_byte_of_each_text(labels):
    """A text's bytes, NULs inside and at its end too, then PAD to the
    widest text's length, at least 1."""
    raw = [label.encode() for label in labels]
    width = max([1, *map(len, raw)])
    table = textcols.labels(iter(labels))
    assert table.dtype == np.dtype(f"V{width}")
    assert table.tobytes() == b"".join(r.ljust(width, bytes([textcols.PAD])) for r in raw)
