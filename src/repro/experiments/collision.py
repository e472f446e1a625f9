"""How pessimistic is the paper's uncorrectable-error assumption?

Section VI-C's reliability bound assumes *any* two channels faulting within
one scrub window defeats the ECC parities.  In truth (and in our bit-true
machine) the parities only fail when the two faults overlap in the same
relative locations - i.e. when some parity group has two corrupted members.
This experiment measures that conditional probability directly: inject two
independent field faults in distinct channels with no scrub in between and
check whether every line still reads back correctly.

The measured collision fraction multiplies the Figure 18 window probability
to give a tighter uncorrectable-error estimate than the paper's bound.

Every trial seeds its own generator from ``SeedSequence((seed, trial))``,
so trials are independent of execution order and the campaign partitions
into process-parallel blocks (via
:func:`repro.experiments.parallel.run_tasks`) with bit-identical totals.
The per-trial recoverability sweep reads every dirty line through the
machine's batched
:meth:`~repro.core.machine.ECCParityMachine.read_lines`, which accounts
no errors: health stays frozen during the sweep, so no read retires a
page or materializes a bank pair that a later read of the same trial would
then see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.layout import Geometry
from repro.core.machine import ECCParityMachine
from repro.ecc.lot_ecc import LotEcc5
from repro.faults.fit_rates import FIT_BY_MODE, FaultMode
from repro.faults.injector import FaultInjector
from repro.util.envcfg import mc_trials
from repro.util.rng import make_rng

#: Trials per process-parallel block.
BLOCK_TRIALS = 16

#: The machine every trial builds: small enough that a trial's full
#: recoverability sweep stays cheap.
GEOMETRY = Geometry(channels=4, banks=4, rows_per_bank=12, lines_per_row=8)


@dataclass
class CollisionResult:
    """Outcome of the two-fault collision campaign."""

    trials: int
    collisions: int  #: trials where some line became unrecoverable
    geometry: Geometry

    @property
    def collision_fraction(self) -> float:
        return self.collisions / self.trials


def _machine_fully_recoverable(machine: ECCParityMachine) -> bool:
    """Can every line still be read back as its pre-fault content?"""
    computed = machine.scheme.compute_detection(machine.data)
    mismatch = np.any(computed != machine.detection, axis=-1)
    coords = np.argwhere(mismatch)
    if coords.size == 0:
        return True
    res = machine.read_lines(coords)
    if not res.ok.all():
        return False
    cs, bs, rs, ls = coords.T
    return bool(np.all(res.data == machine.golden[cs, bs, rs, ls]))


def _collision_trial(trial: int, seed: int, geometry: Geometry) -> bool:
    """Run one independently-seeded trial; True when a collision occurred."""
    rng = make_rng(np.random.SeedSequence((seed, trial)))
    m = ECCParityMachine(LotEcc5(), geometry, seed=1000 + trial)
    inj = FaultInjector(m, seed=2000 + trial)
    modes = list(FIT_BY_MODE)
    weights = np.array([FIT_BY_MODE[m] for m in modes])
    weights = weights / weights.sum()
    c1, c2 = rng.choice(geometry.channels, size=2, replace=False)
    for chan in (int(c1), int(c2)):
        mode = modes[int(rng.choice(len(modes), p=weights))]
        bank = int(rng.integers(geometry.banks))
        chip = int(rng.integers(m.scheme.data_chips))
        inj.inject(mode, location=(chan, bank, chip))
    return not _machine_fully_recoverable(m)


def _collision_block(start: int, stop: int, seed: int) -> int:
    """Worker entry point: collisions among trials ``[start, stop)``.

    Per-trial seeding makes the block total independent of how trials
    are partitioned.
    """
    return sum(_collision_trial(t, seed, GEOMETRY) for t in range(start, stop))


def two_fault_collision_mc(
    trials: "int | None" = None,
    seed: int = 0,
    jobs: "int | None" = None,
) -> CollisionResult:
    """Inject two field faults in distinct channels per trial, no scrub.

    Uses the Sridharan mode mix for both faults.  A "collision" is any line
    the machine can no longer recover - exactly the event the paper's
    pessimistic bound counts at probability 1.  *trials* defaults to
    ``REPRO_MC_TRIALS`` (else 60).  Trial blocks of
    :data:`BLOCK_TRIALS` fan out over processes (``jobs``).
    """
    from repro.experiments import parallel

    trials = mc_trials(trials, 60)
    payloads = [
        (start, min(start + BLOCK_TRIALS, trials), seed)
        for start in range(0, trials, BLOCK_TRIALS)
    ]
    collisions = sum(parallel.run_tasks(_collision_block, payloads, jobs=jobs))
    return CollisionResult(trials, collisions, GEOMETRY)
