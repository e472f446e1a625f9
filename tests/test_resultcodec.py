"""The framed-record layer of the checkpoint log.

:class:`repro.util.cachefile.Checkpoint` stores CRC-framed records, each
the UTF-8 JSON text of one ``[key, value]`` pair, written with one append
each and read back by :func:`~repro.util.cachefile.read_frames`.  The
contract under test: a torn or bit-flipped tail ends the readable prefix
and is never decoded as a record, offset-resumed reads concatenate to one
whole read, and the on-disk bytes of the format never change.
"""

import pytest

from repro.util.cachefile import frame, read_frames

#: The three records of :data:`GOLDEN_RECORDS` framed and appended in
#: order: they must read back unchanged and re-frame byte-for-byte.
GOLDEN_FRAMES = bytes.fromhex(
    "296a1259530000005b2273747265616d636c75737465727c636869706b696c6c3138222c"
    "207b22697063223a20312e32352c2022656e657267795f6a223a20302e303632352c2022"
    "7265616473223a205b332c20312c20325d7d5d1cf7756d560000005b22736a656e677c6c"
    "6f745f656363355f6570222c207b22697063223a20302e3837352c20226e6f7465223a20"
    "22685c75303065396c6c6f222c20226f6b223a20747275652c20227370617265223a206e"
    "756c6c7d5ddab23127320000005b226d63667c636869706b696c6c3336222c207b226970"
    "63223a202d322e35652d30372c2022777269746573223a20307d5d"
)

#: Checkpoint-shaped records: ``[cell key, cell value]``.
GOLDEN_RECORDS = [
    ["streamcluster|chipkill18", {"ipc": 1.25, "energy_j": 0.0625, "reads": [3, 1, 2]}],
    ["sjeng|lot_ecc5_ep", {"ipc": 0.875, "note": "héllo", "ok": True, "spare": None}],
    ["mcf|chipkill36", {"ipc": -2.5e-07, "writes": 0}],
]


class TestGoldenFrames:
    def test_on_disk_format_is_stable(self, tmp_path):
        path = tmp_path / "golden.log"
        path.write_bytes(GOLDEN_FRAMES)
        assert read_frames(path) == (GOLDEN_RECORDS, len(GOLDEN_FRAMES), False)
        assert b"".join(frame(rec) for rec in GOLDEN_RECORDS) == GOLDEN_FRAMES

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_frames(tmp_path / "nope") == ([], 0, False)


class TestRecordLog:
    """Properties of the framed-record log the checkpoint uses."""

    RECORDS = [
        ["cell|a", {"ipc": 1.25}],
        ["cell|b", {"ipc": 0.125, "reads": 4242, "tag": "00112233445566ff"}],
        ["x" * 40, {"k": [1.5, -2, True], "none": None}],
        ["cell|d", 1],
    ]

    @pytest.fixture
    def log(self, tmp_path):
        """The log file plus every record boundary (0 … file size)."""
        path = tmp_path / "records.log"
        frames = [frame(rec) for rec in self.RECORDS]
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
            assert read_frames(cut_path) == (
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
                records, clean_end, torn = read_frames(bad_path)
                assert records == self.RECORDS[:-1], (pos, mask)
                assert clean_end == bounds[-2] and torn

    def test_resumed_reads_concatenate_to_one_whole_read(self, log, tmp_path):
        path, bounds = log
        data = path.read_bytes()
        whole = read_frames(path)
        assert whole == (self.RECORDS, bounds[-1], False)
        for k, start in enumerate(bounds):
            assert read_frames(path, start) == (self.RECORDS[k:], bounds[-1], False)
        # A tailer of a growing log resumes each read at the last clean
        # end; a frame caught mid-write is left for the next read.
        grow = tmp_path / "grow.log"
        pieces, offset = [], 0
        for start, end in zip(bounds, bounds[1:]):
            grow.write_bytes(data[: end - 3])
            assert read_frames(grow, offset) == ([], start, True)
            grow.write_bytes(data[:end])
            chunk, offset, torn = read_frames(grow, offset)
            assert offset == end and not torn
            pieces += chunk
        assert pieces == whole[0]
