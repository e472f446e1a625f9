"""The framed-record layer of :mod:`repro.experiments.resultcodec`.

The checkpoint log stores CRC-framed records written with one append
each and read back by
:func:`~repro.experiments.resultcodec.read_frames`.  The contract under
test: a torn or bit-flipped tail ends the readable prefix and is never
decoded as a record, offset-resumed reads concatenate to one whole read,
and the on-disk bytes of the format never change.
"""

import pytest

from repro.experiments import resultcodec

#: Five records of :data:`GOLDEN_RECORDS` framed and appended in order.
#: Both logs share this format: it must read back unchanged and re-frame
#: byte-for-byte.
GOLDEN_FRAMES = bytes.fromhex(
    "441dd0a79700000074050000007305000000626567696e73400000006162616261626162"
    "616261626162616261626162616261626162616261626162616261626162616261626162"
    "61626162616261626162616261626162616261626903000000000000007306000000676f"
    "6c64656e6c02000000731000000030303131323233333434353536366666731000000038"
    "383939616162626363646465656666c11095052f00000074020000007305000000677261"
    "6e746c03000000690000000000000000690100000000000000690200000000000000ea1c"
    "ebeb4c00000074040000007306000000736574746c656901000000000000006402000000"
    "73010000007866000000000000044073010000006e6c030000006901000000000000004e"
    "5473040000006c6976651b08df524200000074040000007306000000736574746c656900"
    "00000000000000740300000066000000000000084069f9ffffffffffffff730100000073"
    "730700000073616c766167656fb012191700000074020000007304000000646f6e656902"
    "00000000000000"
)

GOLDEN_RECORDS = [
    ("begin", "ab" * 32, 3, "golden", ["00112233445566ff", "8899aabbccddeeff"]),
    ("grant", [0, 1, 2]),
    ("settle", 1, {"x": 2.5, "n": [1, None, True]}, "live"),
    ("settle", 0, (3.0, -7, "s"), "salvage"),
    ("done", 2),
]


class TestGoldenFrames:
    def test_on_disk_format_is_stable(self, tmp_path):
        path = tmp_path / "golden.log"
        path.write_bytes(GOLDEN_FRAMES)
        assert resultcodec.read_frames(path) == (GOLDEN_RECORDS, len(GOLDEN_FRAMES), False)
        assert b"".join(resultcodec.frame(rec) for rec in GOLDEN_RECORDS) == GOLDEN_FRAMES

    def test_missing_file_reads_empty(self, tmp_path):
        assert resultcodec.read_frames(tmp_path / "nope") == ([], 0, False)


class TestRecordLog:
    """Properties of the framed-record log the checkpoint uses."""

    RECORDS = [
        ('["cell|a", {"ipc": 1.25}]',),  # a checkpoint-log record
        (0, 0.125, 4242, "00112233445566ff", 0, b"\x00payload\xff"),  # mixed scalar types
        ("x" * 40, 7, {"k": [1.5, -2, True]}, None),
        ("done", 1),
    ]

    @pytest.fixture
    def log(self, tmp_path):
        """The log file plus every record boundary (0 … file size)."""
        path = tmp_path / "records.log"
        frames = [resultcodec.frame(rec) for rec in self.RECORDS]
        path.write_bytes(b"".join(frames))
        bounds = [0]
        for f in frames:
            bounds.append(bounds[-1] + len(f))
        return path, bounds

    def test_every_truncation_reads_the_complete_prefix(self, log, tmp_path):
        path, bounds = log
        data = path.read_bytes()
        cut_path = tmp_path / "cut.log"
        for cut in range(len(data) + 1):
            cut_path.write_bytes(data[:cut])
            n = max(k for k, b in enumerate(bounds) if b <= cut)
            assert resultcodec.read_frames(cut_path) == (
                self.RECORDS[:n], bounds[n], cut > bounds[n]
            ), cut

    def test_any_flipped_byte_of_last_record_ends_the_prefix(self, log, tmp_path):
        path, bounds = log
        data = path.read_bytes()
        bad_path = tmp_path / "bad.log"
        for pos in range(bounds[-2], bounds[-1]):
            for mask in (0x01, 0x80, 0xFF):
                bad = bytearray(data)
                bad[pos] ^= mask
                bad_path.write_bytes(bytes(bad))
                records, clean_end, torn = resultcodec.read_frames(bad_path)
                assert records == self.RECORDS[:-1], (pos, mask)
                assert clean_end == bounds[-2] and torn

    def test_resumed_reads_concatenate_to_one_whole_read(self, log, tmp_path):
        path, bounds = log
        data = path.read_bytes()
        whole = resultcodec.read_frames(path)
        assert whole == (self.RECORDS, bounds[-1], False)
        for k, start in enumerate(bounds):
            assert resultcodec.read_frames(path, start) == (
                self.RECORDS[k:], bounds[-1], False
            )
        # A tailer of a growing log resumes each read at the last clean
        # end; a frame caught mid-write is left for the next read.
        grow = tmp_path / "grow.log"
        pieces, offset = [], 0
        for start, end in zip(bounds, bounds[1:]):
            grow.write_bytes(data[: end - 3])
            assert resultcodec.read_frames(grow, offset) == ([], start, True)
            grow.write_bytes(data[:end])
            chunk, offset, torn = resultcodec.read_frames(grow, offset)
            assert offset == end and not torn
            pieces += chunk
        assert pieces == whole[0]
