"""Compiled epoch kernel vs the event-driven oracle: bit-identity tests.

The contract under test: ``SimSystem.run`` on its default epoch kernel
(the compiled core in ``repro.cpu.epochnative``) must produce
*bit-identical* results to ``SimSystem._run_reference`` - not just the
measured-phase ``SimResult``, but the complete post-run system state
(LLC arrays, per-rank timing/energy counters, channel queues, core
state, IPC windows, event sequence numbers).

Coverage is a scenario matrix over schemes, channel counts, mapping
policies, ECC-parity wrap, degraded mode (fault states), scrubbing,
uncached ECC/XOR lines, bursts and IPC windows, plus a seeded random
property sweep, the paper's ablation experiments, and a pooled
evaluation-matrix run proving serial == parallel == epoch.  On a host
without a compiler the epoch kernel is the event loop itself, so these
tests then compare the oracle with itself; CI asserts the core builds.
"""

import copy
import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments.evaluation as ev
from repro.cpu import epochnative
from repro.cpu.degraded import DegradedMode
from repro.cpu.ecc_traffic import EccTrafficModel
from repro.cpu.llc import LLC, LineKind
from repro.cpu.system import EV_CORE, ScrubConfig, SimSystem
from repro.dram.system import MemorySystem, MemorySystemConfig
from repro.ecc import Chipkill18, Chipkill36, LotEcc5, LotEcc9, MultiEcc
from repro.ecc.catalog import QUAD_EQUIVALENT, SYSTEM_CLASSES
from repro.experiments import runner
from repro.experiments.ablation import xor_caching_ablation
from repro.experiments.evaluation import Fidelity, evaluation_matrix
from repro.experiments.transition import materialization_storm
from repro.util import envcfg
from repro.workloads.generator import make_core_traces
from repro.workloads.profiles import ALL_WORKLOADS, WORKLOADS_BY_NAME

PROFILES = {w.name: w for w in ALL_WORKLOADS}

SCHEMES = {
    "ck36": Chipkill36,
    "ck18": Chipkill18,
    "lot9": LotEcc9,
    "lot5": LotEcc5,
    "multi": MultiEcc,
}


def build(scheme, traces, channels=2, ranks=1, ecc_parity=None, degraded=None,
          scrub=None, load_mlp=1, policy="interleave", cache_ecc_lines=True,
          llc_bytes=64 * 1024):
    mem = MemorySystem(
        MemorySystemConfig(
            channels=channels,
            ranks_per_channel=ranks,
            chip_widths=scheme.chip_widths(),
            line_size=scheme.line_size,
            mapping_policy=policy,
        )
    )
    model = EccTrafficModel.for_scheme(scheme, ecc_parity)
    if not cache_ecc_lines:
        model = dataclasses.replace(model, cache_ecc_lines=False)
    llc = LLC(size_bytes=llc_bytes, line_size=scheme.line_size)
    return SimSystem(mem, traces, model, llc=llc, degraded=degraded,
                     scrub=scrub, load_mlp=load_mlp)


def state_of(sim):
    """Complete observable post-run state, for exact comparison."""
    st = {
        "now": sim.now,
        "seq": sim._seq,
        "total": sim.total_instructions,
        "counters": dataclasses.astuple(sim.counters),
        "acc64": sim.mem.accesses_64b,
        "llc": (sim.llc._clock, sim.llc._hits, sim.llc._misses,
                sim.llc._evictions_dirty),
        "llc_where": dict(sim.llc._where),
        "llc_tags": list(sim.llc._tags),
        "llc_lru": list(sim.llc._lru),
        "llc_dirty": list(sim.llc._dirty),
        "llc_kind": [int(k) for k in sim.llc._kind],
        "llc_fill": list(sim.llc._fill),
        "scrub": (sim._scrub_cursor, sim.scrub_reads),
        "cores": [
            (c.done, c.waiting, c.outstanding_posted, c.outstanding_loads,
             c.instructions, c.pending)
            for c in sim.cores
        ],
        "window": list(sim._window_instr),
    }
    for ci, ch in enumerate(sim.mem.channels):
        st[f"ch{ci}"] = (
            [(q.rank, q.bank, q.row, q.is_write, q.arrive, q.tag, q.demand)
             for q in ch.queue],
            dict(ch._pending_counts), ch._demand_count, ch._background_count,
            ch._draining, ch.bus_free, ch.last_was_write, ch.fast_picks,
            ch.issued_requests, ch._refresh_due,
        )
        for ri, r in enumerate(ch.ranks):
            st[f"ch{ci}r{ri}"] = (
                list(r.bank_ready), list(r.act_times), r.busy_until,
                r.accounted_to, r.next_refresh, r.refreshes,
                dataclasses.astuple(r.counters),
            )
    return st


def res_of(res):
    return {
        "instructions": res.instructions,
        "cycles": res.cycles,
        "accesses_64b": res.accesses_64b,
        "counters": dataclasses.astuple(res.counters),
        "llc": (res.llc_hits, res.llc_misses),
        "energy": dataclasses.astuple(res.energy),
    }


def assert_identical(mk, warmup, measure, monkeypatch, bursts=(), ipc_window=None):
    """Reference vs ``run`` on the epoch kernel - full-state bit identity.

    Returns the reference system, for checks on what the run reached.
    """

    def prepared():
        sim = mk()
        for b in bursts:
            sim.schedule_burst(*b)
        if ipc_window:
            sim.ipc_window = ipc_window
        return sim

    ref = prepared()
    r_ref = ref._run_reference(warmup, measure)
    want_res, want_state = res_of(r_ref), state_of(ref)

    monkeypatch.setenv("REPRO_SIM_KERNEL", "epoch")
    epo = prepared()
    assert epochnative.eligible(epo), "config would silently take the event loop"
    r_epo = epo.run(warmup, measure)
    assert res_of(r_epo) == want_res, "SimResult diverged"
    epochnative.readback(epo)
    got = state_of(epo)
    for key in want_state:
        assert got[key] == want_state[key], f"state[{key}] diverged"
    return ref


def wl_traces(wl_name, seed, cores=4, scale=64, line=64):
    return make_core_traces(PROFILES[wl_name], cores=cores, llc_block_bytes=line,
                            seed=seed, footprint_scale=scale)


class TestKernelIdentityScenarios:
    def test_tiny_synthetic_trace(self, monkeypatch):
        assert_identical(
            lambda: build(Chipkill18(),
                          [iter([(10, 5, False), (8, 6, True), (4, 999, False)])]),
            0, 1000, monkeypatch)

    @pytest.mark.parametrize("ipc", [1.5, 3.0, 0.7])
    def test_core_event_gap_cycles(self, ipc, monkeypatch):
        """The C core's max(1, ceil(gap / IPC)) matches the reference's."""

        def mk():
            sim = build(Chipkill18(), wl_traces("gcc", 9)
                        + [iter([(0, 7, False), (1, 8, True), (5, 9, False)] * 50)])
            sim.IPC = ipc
            return sim

        assert_identical(mk, 1000, 5000, monkeypatch)

    @pytest.mark.parametrize("tag", sorted(SCHEMES))
    def test_scheme_sweep(self, tag, monkeypatch):
        scheme = SCHEMES[tag]()
        assert_identical(
            lambda: build(scheme, wl_traces("mcf", 1, line=scheme.line_size)),
            2000, 6000, monkeypatch)

    def test_ecc_parity_wrap(self, monkeypatch):
        assert_identical(
            lambda: build(LotEcc5(), wl_traces("lbm", 2, line=LotEcc5().line_size),
                          channels=4, ecc_parity=4),
            2000, 6000, monkeypatch)

    # The uncached cases use a 4 KB LLC so the run is dominated by dirty
    # write-backs: each one must pay the ECC-state update in memory.

    def test_uncached_xor_lines(self, monkeypatch):
        assert_identical(
            lambda: build(MultiEcc(), wl_traces("milc", 3), cache_ecc_lines=False,
                          llc_bytes=4096),
            1000, 8000, monkeypatch)

    def test_uncached_ecc_lines(self, monkeypatch):
        """ECC-line schemes pay only the RMW pair (no old-data read)."""
        assert_identical(
            lambda: build(LotEcc5(), wl_traces("lbm", 3, line=LotEcc5().line_size),
                          cache_ecc_lines=False, llc_bytes=4096),
            1000, 8000, monkeypatch)

    def test_degraded_mode_fault_state(self, monkeypatch):
        deg = DegradedMode(frozenset({(0, 0, 0), (1, 0, 3)}), ecc_line_coverage=2)
        assert_identical(
            lambda: build(Chipkill18(), wl_traces("mcf", 4), degraded=deg),
            1000, 5000, monkeypatch)

    def test_patrol_scrub(self, monkeypatch):
        assert_identical(
            lambda: build(LotEcc5(), wl_traces("omnetpp", 5, line=LotEcc5().line_size),
                          scrub=ScrubConfig(interval_cycles=500, region_lines=4096)),
            1000, 5000, monkeypatch)

    def test_bursts_and_ipc_window(self, monkeypatch):
        assert_identical(
            lambda: build(Chipkill36(), wl_traces("mcf", 6)),
            0, 6000, monkeypatch,
            bursts=[(100, 200, 100, 1 << 30), (5000, 64, 64, 1 << 31)],
            ipc_window=1000)

    def test_bursts_with_growing_ipc_window(self, monkeypatch):
        """Short windows outgrow the core's initial window array mid-run;
        a burst lands during warm-up and another after the stop target."""
        assert_identical(
            lambda: build(LotEcc5(), wl_traces("milc", 9, line=LotEcc5().line_size),
                          channels=4, ecc_parity=4, cache_ecc_lines=False,
                          llc_bytes=4096),
            2000, 6000, monkeypatch,
            bursts=[(50, 96, 32, 0), (400, 16, 300, 1 << 20), (10 ** 9, 8, 8, 0)],
            ipc_window=7)

    def test_load_mlp_single_channel_multi_rank(self, monkeypatch):
        assert_identical(
            lambda: build(Chipkill18(), wl_traces("libquantum", 7), channels=1,
                          ranks=2, load_mlp=4),
            1000, 5000, monkeypatch)

    def test_sequential_mapping(self, monkeypatch):
        assert_identical(
            lambda: build(Chipkill18(), wl_traces("streamcluster", 8),
                          policy="sequential"),
            1000, 5000, monkeypatch)

    def test_trace_shorter_than_warmup(self, monkeypatch):
        assert_identical(
            lambda: build(Chipkill18(),
                          [iter([(10, i, i % 3 == 0) for i in range(20)])]),
            1_000_000, 1_000_000, monkeypatch)

    def test_empty_traces(self, monkeypatch):
        assert_identical(lambda: build(Chipkill18(), [iter([])]), 0, 100, monkeypatch)

    def test_budget_crossed_in_one_gap(self, monkeypatch):
        """Warm-up and stop thresholds crossed by a single instruction gap."""
        assert_identical(
            lambda: build(Chipkill18(),
                          [iter([(5000, i, False) for i in range(50)])]),
            100, 50, monkeypatch)


class TestKernelIdentityProperty:
    """Seeded random sweep: profiles x geometry x fault states x seeds."""

    CASES = 8

    @pytest.mark.parametrize("case", range(CASES))
    def test_random_config(self, case, monkeypatch):
        rng = random.Random(0xECC0 + case)
        scheme = SCHEMES[rng.choice(sorted(SCHEMES))]()
        profile = rng.choice(sorted(PROFILES))
        channels = rng.choice([1, 2, 4])
        ranks = rng.choice([1, 2])
        degraded = None
        scrub = None
        if rng.random() < 0.3:
            faulty = frozenset(
                (rng.randrange(channels), rng.randrange(ranks), rng.randrange(8))
                for _ in range(rng.randint(1, 3))
            )
            degraded = DegradedMode(faulty, ecc_line_coverage=rng.choice([1, 2, 4]))
        elif rng.random() < 0.3:
            scrub = ScrubConfig(
                interval_cycles=rng.choice([300, 900]),
                region_lines=rng.choice([1024, 8192]),
            )
        kw = dict(
            channels=channels,
            ranks=ranks,
            ecc_parity=channels if channels >= 3 and rng.random() < 0.5 else None,
            degraded=degraded,
            scrub=scrub,
            load_mlp=rng.choice([1, 2, 4]),
            policy=rng.choice(["interleave", "sequential"]),
            cache_ecc_lines=rng.random() < 0.8,
        )
        seed = rng.randrange(1 << 16)
        cores = rng.choice([1, 2, 4])
        warmup = rng.choice([0, 500, 2000])
        measure = rng.choice([2000, 5000])
        assert_identical(
            lambda: build(scheme, wl_traces(profile, seed, cores=cores,
                                            line=scheme.line_size), **kw),
            warmup, measure, monkeypatch)


def record_pushes(sim):
    """Log every reference-loop push on *sim* as ``(now, time, kind)``."""
    log = []
    push = sim._push

    def recording(time, kind, payload):
        log.append((sim.now, time, kind))
        push(time, kind, payload)

    sim._push = recording
    return log


class TestEventQueueEdges:
    """The core's event queue is a 4096-cycle timing wheel plus an overflow
    heap for events pushed further ahead; these runs cross its edges."""

    WHEEL = 4096

    def test_far_bursts_several_turns_apart(self, monkeypatch):
        bursts = [(self.WHEEL, 64, 32, 1 << 30), (3 * self.WHEEL + 1, 32, 64, 1 << 31),
                  (9 * self.WHEEL - 1, 16, 16, 0)]
        ref = assert_identical(lambda: build(Chipkill18(), wl_traces("mcf", 11)),
                               2000, 70000, monkeypatch, bursts=bursts)
        assert ref.now > bursts[-1][0]

    def test_far_bursts_after_traces_end(self, monkeypatch):
        """Only far events are left: the wheel empties and jumps ahead."""
        trace = [(4, 64 * i, i % 4 == 0) for i in range(40)]
        bursts = [(50_000, 8, 8, 0), (50_000 + 2 * self.WHEEL, 4, 4, 1 << 20),
                  (50_000 + 2 * self.WHEEL, 2, 0, 1 << 21), (10 ** 6, 1, 1, 0)]
        ref = assert_identical(lambda: build(Chipkill18(), [iter(trace)]),
                               0, 10 ** 6, monkeypatch, bursts=bursts)
        assert ref.now > 10 ** 6

    @pytest.mark.parametrize("interval", [4096, 6000])
    def test_scrub_interval_beyond_wheel(self, interval, monkeypatch):
        """Every scrub tick is pushed into the overflow heap."""
        ref = assert_identical(
            lambda: build(LotEcc5(), wl_traces("omnetpp", 12, line=LotEcc5().line_size),
                          scrub=ScrubConfig(interval_cycles=interval, region_lines=4096)),
            1000, 120_000, monkeypatch)
        assert ref.scrub_reads >= 3

    def test_burst_on_cycle_of_later_wheel_push(self, monkeypatch):
        """A far burst shares its cycle with an event pushed from inside
        the wheel by the very first handler after the burst came within
        reach.  The burst (lower seq) must run first: the core step after
        it crosses the stop target, so run second it would never run."""
        # One core: a miss, a 4095-cycle gap to a hit on the same line,
        # then a step HIT_LATENCY after that hit.
        trace = [(2, 5, False), (2 * 4095, 5, False), (2, 9, False)]
        measure = sum(gap for gap, _, _ in trace)

        def mk():
            return build(Chipkill18(), [iter(list(trace))])

        probe = mk()
        log = record_pushes(probe)
        probe._run_reference(0, measure)
        hit_at, cycle, _ = [p for p in log if p[2] == EV_CORE][2]
        # The pop before the hit is a full wheel turn before `cycle`, so a
        # burst there waits in the overflow heap until the hit's pop.
        prev_pop = max(t for _, t, _ in log if t < hit_at)
        assert prev_pop + self.WHEEL <= cycle < hit_at + self.WHEEL

        ref = assert_identical(mk, 0, measure, monkeypatch,
                               bursts=[(cycle, 8, 4, 1 << 24)])
        assert ref.counters.data_reads > 1  # the burst ran before the stop

    @pytest.mark.parametrize("cap", [6, 16])
    def test_heap_cap_counts_wheel_and_overflow(self, cap, monkeypatch):
        """HEAP_CAP bounds the live events of the wheel and the overflow
        heap together: cap 6 is hit while the 11 initial events are pushed,
        cap 16 once the burst at cycle 0 floods the wheel with channel
        wakeups while six far bursts wait in the overflow heap."""
        if not epochnative.available():
            pytest.skip("compiled core unavailable")
        monkeypatch.setattr(epochnative, "HEAP_CAP", cap)
        sim = build(Chipkill18(), wl_traces("mcf", 13))
        for i in range(6):
            sim.schedule_burst(self.WHEEL * (i + 2), 1, 0, 0)
        sim.schedule_burst(0, 40, 40, 1 << 30)
        with pytest.raises(RuntimeError, match="epoch native event heap overflow"):
            epochnative.run_native(sim, 1000, 5000)
        # The capped state is its own resident geometry: the same shape at
        # the default cap still runs to the oracle's result.
        monkeypatch.undo()
        assert_identical(lambda: build(Chipkill18(), wl_traces("mcf", 13)), 1000, 5000,
                         monkeypatch)


class TestNativeCore:
    def test_native_engages_for_common_case(self):
        """The compiled core must actually dispatch on the standard shape."""
        sim = build(Chipkill18(), wl_traces("mcf", 0))
        if not epochnative.available():
            pytest.skip("no C toolchain in this environment")
        assert epochnative.eligible(sim)

    def test_scrub_and_degraded_are_eligible(self):
        """Patrol scrub and degraded mode run in the compiled core now."""
        deg = DegradedMode(frozenset({(0, 0, 0)}), ecc_line_coverage=2)
        for kw in (dict(degraded=deg),
                   dict(scrub=ScrubConfig(interval_cycles=500, region_lines=1024))):
            assert epochnative.eligible(build(Chipkill18(), wl_traces("mcf", 0), **kw))

    def test_former_fallback_cases_are_eligible(self):
        """Uncached ECC lines, bursts and IPC windows run in the C core."""
        assert epochnative.eligible(
            build(MultiEcc(), wl_traces("mcf", 0), cache_ecc_lines=False))
        burst_sim = build(Chipkill18(), wl_traces("mcf", 0))
        burst_sim.schedule_burst(10, 4, 4, 1 << 30)
        assert epochnative.eligible(burst_sim)
        window_sim = build(Chipkill18(), wl_traces("mcf", 0))
        window_sim.ipc_window = 100
        assert epochnative.eligible(window_sim)

    def test_unquiesced_systems_take_the_event_loop(self):
        """A populated queue or heap is the one state the core cannot import."""
        queued = build(Chipkill18(), wl_traces("mcf", 0))
        queued.mem.enqueue(5, False, 0, tag=None)
        assert not epochnative.eligible(queued)
        resumed = build(Chipkill18(), wl_traces("mcf", 0))
        resumed._push(0, 0, 0)
        assert not epochnative.eligible(resumed)

    @pytest.mark.parametrize("bad", ["never", "1", "EPOCH"])
    def test_knob_rejects_garbage(self, bad, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", bad)
        with pytest.raises(ValueError):
            envcfg.sim_kernel()


KERNEL_PAIRS = [(a, b) for a in ("epoch", "event") for b in ("epoch", "event")]

#: The four kernel pairs again, in a ``python -O`` child: the refusal must
#: not rest on an assert.
SINGLE_SHOT_UNDER_O = """
import test_epoch_kernel as t
from repro.ecc import Chipkill18
for first, second in t.KERNEL_PAIRS:
    sim = t.build(Chipkill18(), t.wl_traces("mcf", 3))
    sim.run(1000, 3000, kernel=first)
    try:
        sim.run(1000, 3000, kernel=second)
    except RuntimeError as exc:
        assert "single-shot" in str(exc), exc
    else:
        raise SystemExit(f"{first} then {second}: second run returned")
print("refused", len(t.KERNEL_PAIRS))
"""


class TestSingleShot:
    """A system runs once; a second run() raises on either kernel."""

    @pytest.mark.parametrize("first,second", KERNEL_PAIRS)
    def test_second_run_refused(self, first, second):
        sim = build(Chipkill18(), wl_traces("mcf", 3))
        sim.run(1000, 3000, kernel=first)
        after = (sim.now, sim._seq, sim.total_instructions, sim.counters)
        with pytest.raises(RuntimeError, match="single-shot"):
            sim.run(1000, 3000, kernel=second)
        assert (sim.now, sim._seq, sim.total_instructions, sim.counters) == after

    def test_second_run_refused_under_optimize(self):
        tests = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tests.parent / "src"), str(tests)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run([sys.executable, "-O", "-c", SINGLE_SHOT_UNDER_O],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "refused 4" in proc.stdout


class TestResidentState:
    """The core keeps its state arrays resident per geometry, resets them
    in C per run, and reads the full post-run state back on request."""

    @staticmethod
    def spec(system_class, key, seed=0):
        return runner.RunSpec(WORKLOADS_BY_NAME["mcf"], SYSTEM_CLASSES[system_class][key],
                              seed=seed, scale=256)

    def test_geometries_back_to_back(self, monkeypatch):
        """quad -> dual -> quad, 64 B and 128 B lines, in one process: every
        cell equals the oracle, and a geometry's state is reused."""
        if not epochnative.available():
            pytest.skip("compiled core unavailable")
        cells = [("quad", "chipkill36"), ("dual", "chipkill18"), ("quad", "chipkill36"),
                 ("dual", "chipkill36"), ("quad", "chipkill18"), ("dual", "chipkill18")]
        residents = []
        for seed, (system_class, key) in enumerate(cells):
            spec = self.spec(system_class, key, seed)
            assert_identical(lambda: runner.build_system(spec), 2000, 6000, monkeypatch)
            residents.append(epochnative._resident(epochnative._CORE.load().ffi,
                                                   runner.build_system(spec)))
        assert residents[0] is residents[2] and residents[1] is residents[5]
        assert len({id(r) for r in residents}) == 4

    def test_dirty_run_then_fresh_run_same_geometry(self, monkeypatch):
        """A run that leaves faults, bursts, a scrub cursor, an IPC window
        and a full LLC behind does not leak into the next run of its shape."""
        deg = DegradedMode(frozenset({(0, 0, 0), (1, 0, 3)}), ecc_line_coverage=2)
        assert_identical(
            lambda: build(MultiEcc(), wl_traces("milc", 3), degraded=deg, cache_ecc_lines=False,
                          scrub=ScrubConfig(interval_cycles=500, region_lines=4096)),
            1000, 8000, monkeypatch, bursts=[(100, 64, 64, 1 << 30)], ipc_window=50)
        assert_identical(lambda: build(MultiEcc(), wl_traces("milc", 4)), 1000, 8000,
                         monkeypatch)

    def test_warmed_state_is_staged(self, monkeypatch):
        """A used LLC, accounted and refreshed ranks, a channel that has
        scheduled and a core with progress are copied into the core."""

        def mk():
            sim = build(LotEcc5(), wl_traces("lbm", 5, line=LotEcc5().line_size),
                        channels=2, ranks=2)
            for i in range(3000):
                sim.llc.access(i * 7, LineKind(i % 3), make_dirty=i % 2 == 0)
            sim.mem.finalize(9000)
            sim.mem.channels[1]._service_refresh(20000)
            sim.mem.channels[0].bus_free = 40
            sim.cores[2].instructions = 17
            return sim

        assert mk().llc._where
        assert_identical(mk, 1000, 6000, monkeypatch)

    def test_refused_second_run_leaves_state_unread(self, monkeypatch):
        """A refused second run() of a natively run system neither reads
        its state back nor stages it, whichever kernel it asks for: an
        explicit readback afterwards still yields the oracle's state."""
        if not epochnative.available():
            pytest.skip("compiled core unavailable")

        def mk():
            return build(Chipkill18(), wl_traces("mcf", 3))

        ref = mk()
        ref._run_reference(1000, 3000)
        sim = mk()
        sim.run(1000, 3000, kernel="epoch")
        touched = []
        monkeypatch.setattr(epochnative, "readback", lambda sim: touched.append("readback"))
        monkeypatch.setattr(epochnative, "_stage", lambda *a: touched.append("stage"))
        monkeypatch.setattr(SimSystem, "_run_reference", lambda *a: touched.append("event"))
        for kernel in ("epoch", "event"):
            with pytest.raises(RuntimeError, match="single-shot"):
                sim.run(1000, 3000, kernel=kernel)
        assert touched == []
        monkeypatch.undo()
        epochnative.readback(sim)
        assert state_of(sim) == state_of(ref)

    def test_overwritten_state_raises(self):
        """Once a later run of the same geometry reused the arrays, the
        first system can no longer be read back (nor, single-shot, run
        again)."""
        if not epochnative.available():
            pytest.skip("compiled core unavailable")
        first = build(Chipkill18(), wl_traces("mcf", 3))
        first.run(1000, 3000, kernel="epoch")
        second = build(Chipkill18(), wl_traces("mcf", 4))
        second.run(1000, 3000, kernel="epoch")
        with pytest.raises(RuntimeError, match="overwritten"):
            epochnative.readback(first)
        for kernel in ("epoch", "event"):
            with pytest.raises(RuntimeError, match="single-shot"):
                first.run(1000, 3000, kernel=kernel)
        epochnative.readback(second)
        assert second._native is None and second.llc._where

    def test_shared_llc_needs_read_back_or_reset(self):
        """An LLC whose slots a native run left in the core is not staged
        from its stale lists: a system sharing it raises until it is read
        back, and then runs from the read-back state."""
        if not epochnative.available():
            pytest.skip("compiled core unavailable")
        first = build(Chipkill18(), wl_traces("mcf", 3))
        first.run(1000, 3000, kernel="epoch")

        def sharing(llc):
            return SimSystem(MemorySystem(first.mem.config), wl_traces("mcf", 4),
                             first.ecc_model, llc=llc)

        with pytest.raises(RuntimeError, match="unread native state"):
            sharing(first.llc).run(1000, 3000, kernel="epoch")
        epochnative.readback(first)
        assert first.llc._where
        want = res_of(sharing(copy.deepcopy(first.llc))._run_reference(1000, 3000))
        assert res_of(sharing(first.llc).run(1000, 3000, kernel="epoch")) == want
        first.llc.reset()
        assert not first.llc._where and first.llc._native is None


class TestPaperExperiments:
    """The ablation experiments whose configs once needed a separate engine."""

    @pytest.mark.parametrize("experiment", [xor_caching_ablation, materialization_storm])
    def test_event_kernel_equals_default_kernel(self, experiment, monkeypatch):
        monkeypatch.setattr(runner, "adaptive_instructions", lambda *a, **k: 100_000)
        calls = []
        real = epochnative.run_native
        monkeypatch.setattr(epochnative, "run_native",
                            lambda *a: calls.append(1) or real(*a))
        args = (WORKLOADS_BY_NAME["milc"], QUAD_EQUIVALENT["lot_ecc5_ep"])
        monkeypatch.setenv("REPRO_SIM_KERNEL", "event")
        want = dataclasses.asdict(experiment(*args, scale=256, seed=3))
        assert not calls
        monkeypatch.delenv("REPRO_SIM_KERNEL")
        assert dataclasses.asdict(experiment(*args, scale=256, seed=3)) == want
        assert calls or not epochnative.available()


class TestTraceBatchEquivalence:
    """take_batch (epoch refill) vs per-item next() on the same RNG stream."""

    @pytest.mark.parametrize("wl,hot_arena", [("mcf", False), ("lbm", True),
                                              ("canneal", False)])
    def test_batches_match_items(self, wl, hot_arena):
        n = 10_000
        a, b = (
            make_core_traces(PROFILES[wl], cores=1, seed=7,
                             footprint_scale=64, hot_arena=hot_arena)[0]
            for _ in range(2)
        )
        items = [next(a) for _ in range(n)]
        batched = []
        while len(batched) < n:
            gaps, lines, writes = b.take_batch()
            batched.extend(zip(gaps.tolist(), lines.tolist(), writes.tolist()))
        assert batched[:n] == items

    def test_interleaved_consumption(self):
        """A mix of next() and take_batch() yields one unbroken stream."""
        a, b = (
            make_core_traces(PROFILES["mcf"], cores=1, seed=3,
                             footprint_scale=64)[0]
            for _ in range(2)
        )
        ref = [next(a) for _ in range(9000)]
        mixed = [next(b) for _ in range(10)]
        while len(mixed) < 9000:
            gaps, lines, writes = b.take_batch()
            mixed.extend(zip(gaps.tolist(), lines.tolist(), writes.tolist()))
            for _ in range(3):
                mixed.append(next(b))
        assert mixed[:9000] == ref


TINY = Fidelity("tiny", scale=64, access_target=4000)
CELLS = dict(workloads=["streamcluster", "sjeng"],
             config_keys=["chipkill18", "lot_ecc5_ep"])


class TestMatrixKernelIdentity:
    def test_serial_parallel_epoch_identical(self, tmp_path, monkeypatch):
        """Event-serial == epoch-serial == epoch-parallel, cache bytes too.

        Kernel identity end-to-end through the evaluation matrix, and
        through the pool's batched dispatch.
        """
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "event")
        monkeypatch.setenv("REPRO_SIM_KERNEL", "event")
        serial_event = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "epoch")
        monkeypatch.setenv("REPRO_SIM_KERNEL", "epoch")
        serial_epoch = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "par")
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel_epoch = evaluation_matrix("quad", fidelity=TINY, **CELLS)

        assert serial_epoch == serial_event
        assert parallel_epoch == serial_event
        caches = {d: next((tmp_path / d).glob("*.json")).read_bytes() for d in ("event", "epoch", "par")}
        assert caches["epoch"] == caches["event"] == caches["par"]
