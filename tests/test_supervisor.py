"""Durable campaign supervision: journal, salvage, watchdog, recovery.

The acceptance bar (mirroring the engine's chaos contract one level up):
SIGKILL the *driver* mid-campaign, storm ENOSPC at the journal, or tear
the journal's tail — rerunning the same campaign must converge on results
bit-identical to a fault-free serial run, recomputing only tasks the
journal never settled.  Economics are asserted from the journal itself
via :func:`repro.experiments.supervisor.journal_stats`.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.experiments import parallel, resultcodec, supervisor
from repro.faults import montecarlo
from repro.util import chaos, envcfg
from tests._supervisor_worker import slow_square, square

REPO_ROOT = Path(__file__).resolve().parents[1]


#: A journal written by the pre-shared-reader supervisor: the five
#: records of :data:`GOLDEN_RECORDS`, appended in order.  The shared
#: framed-record layer must replay it unchanged and write it byte-for-byte.
GOLDEN_JOURNAL = bytes.fromhex(
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


@pytest.fixture(autouse=True)
def _clean_chaos():
    chaos.arm_io(None)
    yield
    chaos.arm_io(None)
    parallel.set_batch_cap(None)


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.journal"
        j = supervisor.Journal(path)
        records = [
            (supervisor.REC_BEGIN, "abc", 3, "camp"),
            (supervisor.REC_GRANT, [0, 1, 2]),
            (supervisor.REC_SETTLE, 1, {"x": 2.5}, "live"),
            (supervisor.REC_DONE, 1),
        ]
        for rec in records:
            j.append(rec)
        j.close()
        got, _, torn = resultcodec.read_frames(path)
        assert torn is False
        assert [tuple(r[:2]) for r in got] == [tuple(r[:2]) for r in records]
        assert got[2][2] == {"x": 2.5}

    def test_missing_file_reads_empty(self, tmp_path):
        assert resultcodec.read_frames(tmp_path / "nope") == ([], 0, False)

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.journal"
        j = supervisor.Journal(path)
        j.append((supervisor.REC_BEGIN, "abc", 1, "camp"))
        j.append((supervisor.REC_SETTLE, 0, 42, "live"))
        j.close()
        clean = path.read_bytes()
        path.write_bytes(clean + b"\x07\x03partial-frame")
        got, _, torn = resultcodec.read_frames(path)
        assert torn is True and len(got) == 2

    def test_crc_mismatch_stops_replay(self, tmp_path):
        path = tmp_path / "j.journal"
        j = supervisor.Journal(path)
        j.append((supervisor.REC_BEGIN, "abc", 1, "camp"))
        j.append((supervisor.REC_SETTLE, 0, 42, "live"))
        j.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # corrupt the last record's payload
        path.write_bytes(bytes(data))
        got, _, torn = resultcodec.read_frames(path)
        assert torn is True and len(got) == 1

    def test_scan_reports_clean_prefix_length(self, tmp_path):
        path = tmp_path / "j.journal"
        j = supervisor.Journal(path)
        j.append((supervisor.REC_BEGIN, "abc", 1, "camp"))
        j.close()
        clean = path.read_bytes()
        path.write_bytes(clean + b"junk")
        records, clean_len, torn = resultcodec.read_frames(path)
        assert torn is True and clean_len == len(clean) and len(records) == 1

    def test_on_disk_format_is_stable(self, tmp_path):
        path = tmp_path / "golden.journal"
        path.write_bytes(GOLDEN_JOURNAL)
        assert resultcodec.read_frames(path) == (GOLDEN_RECORDS, len(GOLDEN_JOURNAL), False)
        rewritten = tmp_path / "rewritten.journal"
        j = supervisor.Journal(rewritten)
        for rec in GOLDEN_RECORDS:
            j.append(rec)
        j.close()
        assert rewritten.read_bytes() == GOLDEN_JOURNAL

    def test_stats_accounting(self, tmp_path):
        path = tmp_path / "j.journal"
        j = supervisor.Journal(path)
        j.append((supervisor.REC_BEGIN, "abc", 4, "camp"))
        j.append((supervisor.REC_GRANT, [0, 1, 2, 3]))
        j.append((supervisor.REC_SETTLE, 0, 0, "live"))
        j.append((supervisor.REC_GRANT, [1, 2, 3]))
        j.append((supervisor.REC_SETTLE, 1, 1, "salvage"))
        j.append((supervisor.REC_SETTLE, 2, 4, "live"))
        j.append((supervisor.REC_SETTLE, 3, 9, "live"))
        j.append((supervisor.REC_DONE, 4))
        j.close()
        stats = supervisor.journal_stats(path)
        assert stats == {
            "begins": 1,
            "grants": [[0, 1, 2, 3], [1, 2, 3]],
            "granted": 7,
            "settled": 4,
            "settled_live": 3,
            "settled_salvage": 1,
            "done": True,
            "torn_tail": False,
        }


class TestRecordLog:
    """Properties of the one framed-record log the spool and journal share."""

    RECORDS = [
        ("begin", "x" * 40, 3, None),
        (0, 0.125, 4242, "00112233445566ff", 0, b"\x00payload\xff"),
        ("settle", 7, {"k": [1.5, -2, True]}, "live"),
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


class TestSpecHash:
    def test_sensitive_to_worker_and_payloads(self):
        base = supervisor.spec_hash(square, [(1,), (2,)])
        assert supervisor.spec_hash(square, [(1,), (2,)]) == base
        assert supervisor.spec_hash(slow_square, [(1,), (2,)]) != base
        assert supervisor.spec_hash(square, [(1,), (3,)]) != base
        assert supervisor.spec_hash(square, [(2,), (1,)]) != base


class TestFreshAndReplay:
    def test_fresh_campaign_in_order(self, tmp_path):
        payloads = [(i,) for i in range(8)]
        res = supervisor.run_campaign(
            square, payloads, name="fresh", directory=tmp_path, jobs=2, watchdog=False
        )
        assert res == [i * i for i in range(8)]
        stats = supervisor.journal_stats(tmp_path / "fresh.journal")
        assert stats["settled"] == 8 and stats["settled_live"] == 8
        assert stats["done"] and not stats["torn_tail"]
        assert not (tmp_path / "fresh.spool").exists()

    def test_completed_campaign_replays_without_engine(self, tmp_path, monkeypatch):
        payloads = [(i,) for i in range(5)]
        first = supervisor.run_campaign(
            square, payloads, name="rep", directory=tmp_path, jobs=1, watchdog=False
        )

        def _boom(*a, **k):  # any engine launch on replay is a failure
            raise AssertionError("engine must not run on a pure replay")

        monkeypatch.setattr(parallel, "run_tasks", _boom)
        again = supervisor.run_campaign(
            square, payloads, name="rep", directory=tmp_path, jobs=1, watchdog=False
        )
        assert again == first
        stats = supervisor.journal_stats(tmp_path / "rep.journal")
        assert stats["settled_live"] == 5  # replay recomputed nothing
        assert len(stats["grants"]) == 1

    def test_spec_mismatch_quarantines_and_restarts(self, tmp_path):
        supervisor.run_campaign(
            square, [(1,), (2,)], name="c", directory=tmp_path, jobs=1, watchdog=False
        )
        with pytest.warns(RuntimeWarning, match="spec hash"):
            res = supervisor.run_campaign(
                square, [(3,), (4,)], name="c", directory=tmp_path, jobs=1, watchdog=False
            )
        assert res == [9, 16]
        qdir = tmp_path / "c.journal.quarantine"
        assert qdir.is_dir() and len(list(qdir.iterdir())) == 1
        stats = supervisor.journal_stats(tmp_path / "c.journal")
        assert stats["begins"] == 1 and stats["settled"] == 2

    def test_forget_campaign(self, tmp_path):
        supervisor.run_campaign(
            square, [(1,)], name="f", directory=tmp_path, jobs=1, watchdog=False
        )
        assert (tmp_path / "f.journal").exists()
        supervisor.forget_campaign("f", directory=tmp_path)
        assert not (tmp_path / "f.journal").exists()

    def test_streaming_yields_replays_then_live(self, tmp_path):
        payloads = [(i,) for i in range(6)]
        chaos.arm_io("enospc@journal.append#5")  # begin,grant,settle,settle -> fail
        with pytest.raises(supervisor.CampaignPaused):
            list(
                supervisor.supervised_tasks(
                    square, payloads, name="s", directory=tmp_path, jobs=1, watchdog=False
                )
            )
        chaos.arm_io(None)
        pairs = list(
            supervisor.supervised_tasks(
                square, payloads, name="s", directory=tmp_path, jobs=1, watchdog=False
            )
        )
        # Replayed settles come first, in index order; all six settle once.
        assert pairs[:2] == [(0, 0), (1, 1)]
        assert sorted(pairs) == [(i, i * i) for i in range(6)]


class TestEnospcRecovery:
    def test_journal_enospc_pauses_then_resumes_identically(self, tmp_path):
        payloads = [(i,) for i in range(6)]
        expected = [i * i for i in range(6)]
        chaos.arm_io("enospc@journal.append#4")  # first live settle append dies
        with pytest.raises(supervisor.CampaignPaused) as exc:
            supervisor.run_campaign(
                square, payloads, name="en", directory=tmp_path, jobs=1, watchdog=False
            )
        assert "journal append failed" in exc.value.reason
        chaos.arm_io(None)
        pre = supervisor.journal_stats(tmp_path / "en.journal")
        assert pre["settled_live"] == 1 and not pre["done"]
        res = supervisor.run_campaign(
            square, payloads, name="en", directory=tmp_path, jobs=1, watchdog=False
        )
        assert res == expected
        post = supervisor.journal_stats(tmp_path / "en.journal")
        assert post["settled"] == 6 and post["done"]
        # Only the five unsettled tasks were re-granted.
        assert len(post["grants"]) == 2 and len(post["grants"][1]) == 5
        assert post["settled_live"] == 6  # across both runs, each task computed once

    def test_enospc_storm_every_append_still_converges(self, tmp_path):
        payloads = [(i,) for i in range(4)]
        expected = [i * i for i in range(4)]
        # One settle survives per run: the storm kills every *second* append
        # this run sees after it (occurrence counters reset per arm).
        for _ in range(10):
            chaos.arm_io("enospc@journal.append#5")
            try:
                res = supervisor.run_campaign(
                    square, payloads, name="storm", directory=tmp_path, jobs=1, watchdog=False
                )
            except supervisor.CampaignPaused:
                continue
            break
        else:  # pragma: no cover - convergence is monotone
            pytest.fail("campaign never converged under ENOSPC storm")
        chaos.arm_io(None)
        assert res == expected
        stats = supervisor.journal_stats(tmp_path / "storm.journal")
        assert stats["settled"] == 4 and stats["done"]
        assert stats["settled_live"] == 4  # monotone: no task computed twice


class TestTornJournalRecovery:
    def test_torn_append_resumes_bit_identically(self, tmp_path):
        payloads = [(i,) for i in range(6)]
        expected = [i * i for i in range(6)]
        chaos.arm_io("torn=3@journal.append#5")  # third live settle torn mid-frame
        with pytest.raises(supervisor.CampaignPaused):
            supervisor.run_campaign(
                square, payloads, name="torn", directory=tmp_path, jobs=1, watchdog=False
            )
        chaos.arm_io(None)
        pre = supervisor.journal_stats(tmp_path / "torn.journal")
        assert pre["torn_tail"] and pre["settled_live"] == 2
        res = supervisor.run_campaign(
            square, payloads, name="torn", directory=tmp_path, jobs=1, watchdog=False
        )
        assert res == expected
        post = supervisor.journal_stats(tmp_path / "torn.journal")
        # The torn tail was truncated on resume, so the healed journal reads
        # clean end-to-end; the settle the tear destroyed was recomputed.
        assert not post["torn_tail"]
        assert post["settled"] == 6 and post["done"] and post["settled_live"] == 6

    def test_externally_truncated_journal_resumes(self, tmp_path):
        payloads = [(i,) for i in range(5)]
        supervisor.run_campaign(
            square, payloads, name="cut", directory=tmp_path, jobs=1, watchdog=False
        )
        jpath = tmp_path / "cut.journal"
        data = jpath.read_bytes()
        jpath.write_bytes(data[: len(data) - 7])  # tear mid final frame
        res = supervisor.run_campaign(
            square, payloads, name="cut", directory=tmp_path, jobs=1, watchdog=False
        )
        assert res == [i * i for i in range(5)]
        assert supervisor.journal_stats(jpath)["settled"] == 5


class TestDriverKill:
    """SIGKILL the driver mid-campaign; resume salvages orphaned spools."""

    @pytest.mark.parametrize("batch,min_salvage", [(4, 2), (1, 1)], ids=["batch4", "batch1"])
    def test_sigkill_resume_salvages_and_recomputes_only_missing(
        self, tmp_path, batch, min_salvage
    ):
        state = tmp_path / "state"
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {str(REPO_ROOT)!r})
            from tests._supervisor_worker import slow_square
            from repro.experiments import supervisor
            from repro.util import chaos
            chaos.arm_io("kill@supervisor.settle#3")
            payloads = [(i, 0.05) for i in range(12)]
            supervisor.run_campaign(
                slow_square, payloads, name="killed",
                directory={str(state)!r}, jobs=2, batch={batch}, watchdog=False,
            )
            raise SystemExit("unreachable: the driver must die at settle #3")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_OBS", None)
        # start_new_session + DEVNULL: orphaned pool workers must neither
        # hold our pipes open nor survive the cleanup killpg below.
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            rc = child.wait(timeout=120)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        assert rc == -signal.SIGKILL

        jpath = state / "killed.journal"
        pre = supervisor.journal_stats(jpath)
        assert pre["begins"] == 1 and not pre["done"]
        assert pre["settled_live"] == 2  # settles 1-2 landed; kill fired on #3
        assert (state / "killed.spool").is_dir()  # orphaned spools survive

        payloads = [(i, 0.05) for i in range(12)]
        res = supervisor.run_campaign(
            slow_square, payloads, name="killed", directory=state, jobs=2, batch=batch,
            watchdog=False,
        )
        assert res == [i * i for i in range(12)]  # bit-identical to fault-free

        post = supervisor.journal_stats(jpath)
        assert post["settled"] == 12 and post["done"]
        # With batch=4 the killed driver's first super-task was fully
        # spooled, with two of its inners settled: at least the other two
        # salvage.  With batch=1 the result in hand at settle #3 is still
        # in its spool, so at least that one does.
        assert post["settled_salvage"] >= min_salvage
        # Economics: every task settled exactly once across both runs, and
        # the resume granted precisely what replay + salvage left missing.
        assert post["settled_live"] + post["settled_salvage"] == 12
        assert len(post["grants"]) == 2
        assert len(post["grants"][1]) == 12 - pre["settled_live"] - post["settled_salvage"]
        assert not (state / "killed.spool").exists()  # spent spools cleared


class TestSpoolSalvage:
    """Orphaned spools are salvaged only as far as their records pass the CRC."""

    PAYLOADS = [(0.5,), (1.5,), (2.5,), (3.5,)]

    def _orphan(self, directory, flip):
        """A killed driver's leftovers: begin + grant journaled, nothing
        settled, and one spool holding the finished inners 0-2."""
        j = supervisor.Journal(directory / "orphan.journal")
        j.append((supervisor.REC_BEGIN, supervisor.spec_hash(square, self.PAYLOADS), 4, "orphan"))
        j.append((supervisor.REC_GRANT, [0, 1, 2, 3]))
        j.close()
        frames = [
            resultcodec.frame((i, 0.001, 1, None, resultcodec.KIND_OK, resultcodec.encode(x * x)))
            for i, (x,) in enumerate(self.PAYLOADS[:3])
        ]
        data = bytearray(b"".join(frames))
        if flip:
            # Lowest mantissa bit of inner 2's float: without the CRC this
            # decodes to a plausible wrong result, not an error.
            data[-8] ^= 0x01
            record = resultcodec.decode(bytes(data[-(len(frames[2]) - 8) :]))
            assert record[:2] == (2, 0.001)
            assert resultcodec.decode(record[5]) == 6.250000000000001
        spool = directory / "orphan.spool"
        spool.mkdir()
        (spool / "super-0.bin").write_bytes(bytes(data))
        return spool

    @pytest.mark.parametrize("flip", [False, True])
    def test_only_crc_clean_records_are_salvaged(self, tmp_path, flip):
        spool = self._orphan(tmp_path, flip)
        salvaged = supervisor._salvage_spools(spool, [0, 1, 2, 3], set(), None)
        clean = {0: 0.25, 1: 2.25, 2: 6.25}
        if flip:
            del clean[2]
        assert salvaged == clean

        res = supervisor.run_campaign(
            square, self.PAYLOADS, name="orphan", directory=tmp_path, jobs=1, watchdog=False
        )
        assert res == [0.25, 2.25, 6.25, 12.25]
        stats = supervisor.journal_stats(tmp_path / "orphan.journal")
        assert stats["settled_salvage"] == len(clean)
        assert stats["settled_live"] == 4 - len(clean)


class TestHungWorkerTeardown:
    def test_hung_worker_is_killed_under_signal_supervision(self, tmp_path):
        """The supervisor's flag-only SIGTERM handler must not reach the
        pool workers it forks: a hung worker has to die on terminate()."""
        t0 = time.monotonic()
        res = supervisor.run_campaign(
            square, [(i,) for i in range(4)], name="hung", directory=tmp_path, jobs=2,
            watchdog=False, chaos="hang=60@1", timeout=0.5, retries=2, backoff=0, batch=1,
        )
        assert res == [0, 1, 4, 9]
        assert multiprocessing.active_children() == []
        assert time.monotonic() - t0 < 5.0  # the teardown join never timed out


class TestWatchdog:
    def test_memory_pressure_halves_batch_cap_and_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(montecarlo, "_chunk_cap", 8192)
        env_before = dict(os.environ)
        wd = supervisor.ResourceWatchdog(
            tmp_path, mem_budget=100, min_disk=0, poll_s=60,
            rss_sampler=lambda: 200, disk_sampler=lambda: 1 << 40,
        )
        assert parallel._batch_cap is None
        wd.sample()
        assert parallel._batch_cap == parallel.MAX_BATCH // 2
        assert montecarlo.resolve_chunk() == 4096
        assert montecarlo.resolve_chunk(50_000) == 50_000  # explicit sizes win
        wd.sample()
        assert parallel._batch_cap == parallel.MAX_BATCH // 4
        assert montecarlo.resolve_chunk() == 2048
        assert wd.degradations == 2
        assert dict(os.environ) == env_before
        wd.stop()
        assert parallel._batch_cap is None  # restored
        assert montecarlo._chunk_cap == 8192
        assert dict(os.environ) == env_before

    def test_uncapped_chunk_is_capped_then_cleared(self, tmp_path):
        wd = supervisor.ResourceWatchdog(
            tmp_path, mem_budget=1, rss_sampler=lambda: 2, disk_sampler=lambda: 1 << 40
        )
        wd.sample()
        assert montecarlo.resolve_chunk() == montecarlo.DEFAULT_CHUNK // 2
        wd.stop()
        assert montecarlo._chunk_cap is None
        assert montecarlo.resolve_chunk() == montecarlo.DEFAULT_CHUNK

    def test_degradation_bottoms_out_at_one(self, tmp_path):
        wd = supervisor.ResourceWatchdog(
            tmp_path, mem_budget=1, min_disk=0, poll_s=60,
            rss_sampler=lambda: 2, disk_sampler=lambda: 1 << 40,
        )
        for _ in range(12):
            wd.sample()
        assert parallel._batch_cap == 1
        fired = wd.degradations
        wd.sample()
        assert wd.degradations == fired  # no-op once fully degraded
        wd.stop()

    def test_chunk_floor(self, tmp_path, monkeypatch):
        monkeypatch.setattr(montecarlo, "_chunk_cap", 1024)
        wd = supervisor.ResourceWatchdog(
            tmp_path, mem_budget=1, min_disk=0, poll_s=60,
            rss_sampler=lambda: 2, disk_sampler=lambda: 1 << 40,
        )
        wd.sample()
        assert montecarlo.resolve_chunk() == 1024  # never below the floor
        wd.stop()
        assert montecarlo._chunk_cap == 1024

    def test_low_disk_sets_pause(self, tmp_path):
        wd = supervisor.ResourceWatchdog(
            tmp_path, mem_budget=None, min_disk=1000, poll_s=60,
            rss_sampler=lambda: 0, disk_sampler=lambda: 10,
        )
        wd.sample()
        assert wd.pause.is_set() and "below floor" in wd.pause_reason
        wd.stop()

    def test_healthy_sample_is_quiet(self, tmp_path):
        wd = supervisor.ResourceWatchdog(
            tmp_path, mem_budget=1 << 40, min_disk=1, poll_s=60,
            rss_sampler=lambda: 100, disk_sampler=lambda: 1 << 40,
        )
        wd.sample()
        assert parallel._batch_cap is None and not wd.pause.is_set()
        wd.stop()

    def test_chaos_rss_override(self):
        chaos.arm_io("rss=123456789@watchdog.rss")
        assert supervisor.process_rss() == 123456789
        chaos.arm_io(None)
        assert supervisor.process_rss() > 0  # real sampler on Linux

    def test_low_disk_pauses_campaign_then_resumes(self, tmp_path):
        payloads = [(i, 0.1) for i in range(4)]
        with pytest.raises(supervisor.CampaignPaused) as exc:
            supervisor.run_campaign(
                slow_square, payloads, name="disk", directory=tmp_path, jobs=1,
                min_disk=1000, poll_s=0.005, disk_sampler=lambda: 10,
            )
        assert "below floor" in exc.value.reason
        assert 0 < exc.value.settled < 4
        res = supervisor.run_campaign(
            slow_square, payloads, name="disk", directory=tmp_path, jobs=1,
            watchdog=False,
        )
        assert res == [i * i for i in range(4)]
        stats = supervisor.journal_stats(tmp_path / "disk.journal")
        assert stats["settled_live"] == 4  # pause lost nothing


class TestSignals:
    def test_sigterm_interrupts_cleanly_and_resumes(self, tmp_path):
        payloads = [(i,) for i in range(6)]
        gen = supervisor.supervised_tasks(
            square, payloads, name="sig", directory=tmp_path, jobs=1, watchdog=False
        )
        first = next(gen)
        assert first == (0, 0)
        os.kill(os.getpid(), signal.SIGTERM)  # our handler just sets a flag
        with pytest.raises(supervisor.CampaignInterrupted) as exc:
            next(gen)
        assert exc.value.settled == 1
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL  # restored
        res = supervisor.run_campaign(
            square, payloads, name="sig", directory=tmp_path, jobs=1, watchdog=False
        )
        assert res == [i * i for i in range(6)]
        stats = supervisor.journal_stats(tmp_path / "sig.journal")
        assert stats["settled_live"] == 6  # the settled task was not redone


class TestEnvKnobs:
    """The supervisor's settings are call arguments, checked where used."""

    def test_mem_budget_resolution(self, tmp_path):
        assert supervisor.ResourceWatchdog(tmp_path).mem_budget is None
        assert supervisor.ResourceWatchdog(tmp_path, mem_budget=512 << 20).mem_budget == 512 << 20
        assert supervisor.ResourceWatchdog(tmp_path, mem_budget=0).mem_budget is None
        with pytest.raises(ValueError):
            supervisor.ResourceWatchdog(tmp_path, mem_budget=-1)

    def test_supervisor_knobs(self, tmp_path):
        wd = supervisor.ResourceWatchdog(tmp_path)
        assert wd.poll_s == supervisor.DEFAULT_SUPERVISOR_POLL
        assert wd.min_disk == supervisor.DEFAULT_SUPERVISOR_MIN_DISK
        wd = supervisor.ResourceWatchdog(tmp_path, min_disk=0, poll_s=2.5)
        assert wd.min_disk == 0 and wd.poll_s == 2.5
        for bad in (dict(min_disk=-1), dict(poll_s=0), dict(poll_s=-1.0)):
            with pytest.raises(ValueError):
                supervisor.ResourceWatchdog(tmp_path, **bad)
        default = supervisor._campaign_paths("c", None).journal
        assert default == Path(supervisor.DEFAULT_SUPERVISOR_DIR) / "c.journal"
        assert supervisor._campaign_paths("c", "/z").journal == Path("/z/c.journal")

    def test_knobs_registered(self, tmp_path):
        """None of the supervisor's settings is an environment knob, and a
        bad one reaches the watchdog through run_campaign."""
        assert not {
            "REPRO_CHAOS_IO",
            "REPRO_MEM_BUDGET",
            "REPRO_SUPERVISOR_DIR",
            "REPRO_SUPERVISOR_POLL",
            "REPRO_SUPERVISOR_MIN_DISK",
        } & set(envcfg.KNOBS)
        with pytest.raises(ValueError):
            supervisor.run_campaign(
                square, [(1,)], name="bad", directory=tmp_path, jobs=1, poll_s=0
            )
