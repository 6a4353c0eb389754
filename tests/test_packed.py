import os
import threading
import tracemalloc

import numpy as np
import pytest

from tshash.packed import (
    CodesFormatError,
    PackedCodes,
    pack_signs,
    read_codes_file,
    words_per_code,
    write_codes_file,
)


class TestPacking:
    def test_words_per_code_boundaries(self):
        assert [words_per_code(m) for m in (1, 63, 64, 65, 128, 129)] == [1, 1, 1, 2, 2, 3]

    def test_round_trip_signs(self):
        rng = np.random.default_rng(0)
        for m in (1, 7, 64, 65, 70, 130):
            signs = rng.choice([-1, 1], size=(9, m)).astype(np.int8)
            packed = pack_signs(signs)
            assert packed.n == 9 and packed.m == m
            assert np.array_equal(packed.signs(), signs)
            for bits in (signs > 0, (signs > 0).astype(np.uint8)):  # the 0/1 forms
                assert np.array_equal(pack_signs(bits).words, packed.words)

    def test_bit_layout_little_endian_word_major(self):
        # bit k lives in word k >> 6 at position k & 63, set iff sign +1
        signs = -np.ones((1, 70), dtype=np.int8)
        signs[0, 0] = 1
        signs[0, 65] = 1
        packed = pack_signs(signs)
        assert packed.words[0, 0] == np.uint64(1)
        assert packed.words[0, 1] == np.uint64(2)

    def test_padding_bits_zero(self):
        signs = np.ones((3, 5), dtype=np.int8)
        packed = pack_signs(signs)
        assert packed.words[0, 0] == np.uint64(0b11111)

    def test_rejects_dirty_padding(self):
        with pytest.raises(CodesFormatError):
            PackedCodes(np.array([[1 << 10]], dtype=np.uint64), 5)

    def test_empty_matrix_allowed(self):
        packed = PackedCodes(np.zeros((0, 1), dtype=np.uint64), 8)
        assert packed.n == 0
        assert packed.signs().shape == (0, 8)


class TestCodesFile:
    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        packed = pack_signs(rng.choice([-1, 1], size=(12, 70)))
        path = tmp_path / "codes.tshc"
        write_codes_file(path, packed)
        back = read_codes_file(path)
        assert back.m == 70 and back.n == 12
        assert np.array_equal(back.words, packed.words)

    def test_header_layout(self, tmp_path):
        packed = pack_signs(np.ones((2, 3), dtype=np.int8))
        path = tmp_path / "codes.tshc"
        write_codes_file(path, packed)
        blob = path.read_bytes()
        assert blob[:4] == b"TSHC"
        assert int.from_bytes(blob[4:8], "little") == 1  # version
        assert int.from_bytes(blob[8:16], "little") == 2  # N
        assert int.from_bytes(blob[16:20], "little") == 3  # m
        assert len(blob) == 20 + 2 * 8

    def test_empty_file_round_trip(self, tmp_path):
        packed = PackedCodes(np.zeros((0, 2), dtype=np.uint64), 100)
        path = tmp_path / "codes.tshc"
        write_codes_file(path, packed)
        back = read_codes_file(path)
        assert back.n == 0 and back.m == 100

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tshc"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CodesFormatError, match="magic"):
            read_codes_file(path)

    def test_truncated_payload_rejected(self, tmp_path):
        packed = pack_signs(np.ones((4, 64), dtype=np.int8))
        path = tmp_path / "codes.tshc"
        write_codes_file(path, packed)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CodesFormatError, match="payload"):
            read_codes_file(path)

    def test_trailing_payload_bytes_rejected(self, tmp_path):
        packed = pack_signs(np.ones((4, 64), dtype=np.int8))
        path = tmp_path / "codes.tshc"
        write_codes_file(path, packed)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CodesFormatError, match="expected 32 payload bytes, got 33"):
            read_codes_file(path)

    def test_payload_is_read_once(self, tmp_path):
        # The words array and PackedCodes' padding check are one payload
        # each; a copy of the file's bytes on top would pass 2.5x.
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**63, size=(50_000, 1), dtype=np.uint64)
        path = tmp_path / "codes.tshc"
        write_codes_file(path, PackedCodes(words, 64))
        tracemalloc.start()
        try:
            back = read_codes_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.words, words)
        assert peak <= 2.5 * words.nbytes, peak / words.nbytes

    # A pipe (a FIFO here, as from a shell's process substitution) has no
    # size to check before reading; its payload is read whole.
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("cut", [0, 5])
    def test_pipe_is_read(self, tmp_path, cut):
        packed = pack_signs(np.random.default_rng(2).choice([-1, 1], size=(12, 70)))
        path = tmp_path / "codes.tshc"
        write_codes_file(path, packed)
        blob = path.read_bytes()
        fifo = tmp_path / "codes.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(blob[: len(blob) - cut]), daemon=True)
        writer.start()
        try:
            if cut:
                with pytest.raises(CodesFormatError, match="expected 192 payload bytes, got 187"):
                    read_codes_file(fifo)
            else:
                assert np.array_equal(read_codes_file(fifo).words, packed.words)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "tiny.tshc"
        path.write_bytes(b"TSHC\x01")
        with pytest.raises(CodesFormatError, match="truncated"):
            read_codes_file(path)
