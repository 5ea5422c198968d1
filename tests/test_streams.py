"""trsim.streams against the installed numpy: every SeedSequence state,
PCG64 output, random() and exponential() value must be numpy's, bit for bit."""

import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from conftest import SCENARIO_TR50
from trsim import streams
from trsim.streams import FE, KE, WE, Streams

# one-word and multi-word seeds: 2**32 and more give SeedSequence more than one
# entropy word per seed, and 2**64 + 5 five words on a fading stream (2, i)
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 20260808)
KEYS = ((0,), (1,), (2, 0), (2, 1), (2, 4096))


def numpy_stream(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def paths(raw: np.ndarray, values: int) -> dict:
    """How numpy's exponential made its first `values` values from the
    outputs `raw`: counts of the fast path, the tail, the wedge accepted and
    the wedge restarted."""
    taken = dict.fromkeys(("fast", "tail", "wedge", "restart"), 0)
    bits, made, i = raw.tolist(), 0, 0
    while made < values:
        word = bits[i] >> 3
        level, word = word & 0xFF, word >> 8
        x = word * WE[level]
        if word < KE[level]:
            taken["fast"] += 1
            i, made = i + 1, made + 1
            continue
        u = (bits[i + 1] >> 11) * 2.0**-53
        i += 2
        if level == 0:
            taken["tail"] += 1
        elif (FE[level - 1] - FE[level]) * u + FE[level] < math.exp(-x):
            taken["wedge"] += 1
        else:
            taken["restart"] += 1
            continue
        made += 1
    return taken


class TestSeeding:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key", KEYS)
    def test_seed_sequence_state(self, seed, key):
        state = np.random.SeedSequence([seed, *key]).generate_state(4, np.uint64)
        assert [int(w) for w in streams._seed((seed, *key))] == state.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pcg64_state_of_each_stream(self, seed):
        """Streams(seed, 2, i) for a range of i at once: each column is PCG64
        seeded from SeedSequence([seed, 2, i])."""
        ids = np.array([0, 1, 7, 4096, 2**32 - 1])
        port = Streams(seed, 2, ids)
        for j, i in enumerate(ids.tolist()):
            state = numpy_stream(seed, 2, i).bit_generator.state["state"]
            assert int(port.hi[j]) << 64 | int(port.lo[j]) == state["state"]
            assert int(port.inc_hi[j]) << 64 | int(port.inc_lo[j]) == state["inc"]

    def test_an_array_entry_must_fit_one_word(self):
        with pytest.raises(ValueError, match="below 2"):
            Streams(1, 2, np.array([2**32]))
        with pytest.raises(ValueError, match="non-negative"):
            Streams(1, 2, np.array([3, -1]))

    def test_a_negative_entry_is_refused_as_by_numpy(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence([-1])
        with pytest.raises(ValueError, match="non-negative"):
            Streams(-1, 0)


class TestDraws:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key", KEYS)
    def test_raw_and_random_of_one_stream(self, seed, key):
        """Within and beyond a stream's addends of 1..BASE_ROWS steps."""
        port, numpy = Streams(seed, *key), numpy_stream(seed, *key)
        assert port.raw(3)[:, 0].tolist() == numpy.bit_generator.random_raw(3).tolist()
        for size in (1, streams.TILE + 5, 17):
            assert port.random(size)[:, 0].tolist() == numpy.random(size).tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_go_on_where_the_last_stopped(self, seed):
        """A stream drawn forward in chunks, as the run draws its traffic
        stream: chunks of uplink demand, then the downlink's values from where
        the uplink's 12,345 stopped, are numpy's values 12,346 onwards."""
        port, numpy = Streams(seed, 1), numpy_stream(seed, 1)
        ul = np.concatenate([port.random(k)[:, 0] for k in (4096, 4096, 4096, 57)])
        assert ul.tolist() == numpy.random(12345).tolist()
        assert port.random(4)[:, 0].tolist() == numpy.random(4).tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_of_many_streams(self, seed):
        port = Streams(seed, 2, np.arange(40))
        numpy = [numpy_stream(seed, 2, i) for i in range(40)]
        for size in (1, 5, 300):
            expected = np.stack([g.random(size) for g in numpy], axis=1)
            assert port.random(size).tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tile", [streams.TILE, 64])
    def test_exponential_in_mixed_blocks(self, seed, tile):
        """Blocks of 1 to 300 values from each of 60 streams, drawn in tiles
        of the default size and in small tiles. The draws take each slow path
        of the ziggurat."""
        blocks = (1, 16, 2, 300, 33, 7)
        port = Streams(seed, 2, np.arange(60))
        numpy = [numpy_stream(seed, 2, i) for i in range(60)]
        raw = [numpy_stream(seed, 2, i).bit_generator.random_raw(sum(blocks) * 2) for i in range(60)]
        with mock.patch.object(streams, "TILE", tile):
            for size in blocks:
                expected = np.stack([g.exponential(1.0, size) for g in numpy], axis=1)
                assert port.exponential(size).tolist() == expected.tolist(), size
        taken = [paths(r, sum(blocks)) for r in raw]
        assert all(sum(t[k] for t in taken) > 0 for k in ("tail", "wedge", "restart")), taken

    @pytest.mark.parametrize("seed", (0, 2**32, 2**64 + 5, 20260808))
    @pytest.mark.parametrize("rows", (1, 4))
    def test_doubling_beyond_the_kept_addends(self, seed, rows):
        """Each of 50 streams keeps its addends of 1..rows steps only, as a
        population too wide for BASE_BYTES does, so every longer draw doubles
        from there: raw(), random() and exponential() in mixed blocks, whose
        later exponential rounds draw from scattered streams (an index array,
        not a slice)."""
        n = 50
        port = Streams(seed, 2, np.arange(n))
        numpy = [numpy_stream(seed, 2, i) for i in range(n)]
        draws = (("raw", 3), ("random", 1), ("exponential", 300), ("random", 700),
                 ("exponential", 1), ("exponential", 33), ("raw", 17))
        numpy_draws = {
            "raw": lambda g, k: g.bit_generator.random_raw(k),
            "random": lambda g, k: g.random(k),
            "exponential": lambda g, k: g.exponential(1.0, k),
        }
        with mock.patch.object(streams, "BASE_BYTES", 16 * n * rows), mock.patch.object(
            Streams, "_states", autospec=True, side_effect=Streams._states
        ) as states:
            for name, k in draws:
                expected = np.stack([numpy_draws[name](g, k) for g in numpy], axis=1)
                assert getattr(port, name)(k).tolist() == expected.tolist(), (name, k)
        assert port._base[0].shape == (n, rows)
        assert any(isinstance(call.args[1], np.ndarray) for call in states.call_args_list)
    @pytest.mark.parametrize("key", KEYS)
    def test_exponential_of_one_stream(self, key):
        port, numpy = Streams(20260808, *key), numpy_stream(20260808, *key)
        for size in (3000, 1, 200):
            assert port.exponential(size)[:, 0].tolist() == numpy.exponential(1.0, size).tolist()

    def test_no_values(self):
        port = Streams(3, 2, np.arange(4))
        assert port.exponential(0).shape == (0, 4)
        assert port.random(0).shape == (0, 4)


class TestSkip:
    @pytest.mark.parametrize("seed", (0, 2**64 + 5, 20260808))
    @pytest.mark.parametrize("n", (1, 50))
    @pytest.mark.parametrize("steps", (0, 1, 2, 8191, 8192, 8193, 10**5))
    def test_draws_after_a_skip_are_numpys_after_those_outputs(self, steps, n, seed):
        """skip(k), then a draw, gives numpy's values after its first k
        outputs: of one stream, and of 50 streams of an entropy array."""
        port = Streams(seed, 1) if n == 1 else Streams(seed, 2, np.arange(n))
        numpy = [numpy_stream(seed, 1)] if n == 1 else [numpy_stream(seed, 2, i) for i in range(n)]
        port.skip(steps)
        for g in numpy:
            g.bit_generator.random_raw(steps)
        expected = np.stack([g.random(5) for g in numpy], axis=1)
        assert port.random(5).tolist() == expected.tolist()


def test_run_does_not_import_numpy_random():
    code = (
        "import sys\n"
        "from trsim.cli import main\n"
        f"main(['run', '--config', {str(SCENARIO_TR50)!r}, '--out', '-'])\n"
        "sys.stderr.write(str('numpy.random' in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("kind,slot,device_id")
    assert proc.stderr == "False"
