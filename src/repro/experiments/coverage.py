"""Detection/correction coverage study across ECC schemes.

Monte Carlo the failure space the schemes are specified against - and just
beyond it - to measure what the capacity overheads actually buy:

* single-chip kills (every scheme's contract: must detect and correct);
* double-chip kills (only double chipkill corrects; the others should
  *detect* - silent corruption or miscorrection is the failure mode);
* random multi-bit scatter (detection-code stress).

This quantifies the paper's caveat that the 18-device code's shared
detection/correction symbols "potentially slightly impact error detection
coverage": with both check symbols consumed by correction, a double-chip
corruption can alias to a valid single-symbol correction and silently
miscorrect, where the 36-device code's spare symbols flag it.

Trials are drawn in chunked batches, and each chunk's corruption becomes
an XOR error pattern decoded by one
:meth:`~repro.ecc.base.ECCScheme.correct_errors` call: error-free trials
never reach the decoder, and a linear scheme decodes the error alone
(the zero line is its codeword, so no payload is encoded).  The draws
still include every payload, so the tallies are those of encoding and
corrupting the drawn lines.  The per-trial encode-corrupt-decode loop
survives as :func:`_tally_reference`, which consumes the same draws and
is held equal to the batched path by ``tests/test_mc_batched.py``.
Cells fan out over processes via
:func:`repro.experiments.parallel.run_tasks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecc import rebuild, rebuildable
from repro.ecc.base import ECCScheme
from repro.util.envcfg import mc_trials
from repro.util.rng import make_rng

#: Fault patterns: name -> (kind, parameter).
PATTERNS = {
    "single-chip kill": ("chips", 1),
    "double-chip kill": ("chips", 2),
    "8 scattered bit flips": ("bits", 8),
}

#: Trials per draw/decode batch (bounds peak memory at large trial counts).
CHUNK = 1 << 14


@dataclass
class CoverageRow:
    """Outcome counts for one (scheme, fault pattern) cell."""

    scheme: str
    pattern: str
    trials: int
    corrected: int = 0  #: returned the original data
    detected_uncorrectable: int = 0  #: flagged, no data (safe)
    silent_or_wrong: int = 0  #: undetected or miscorrected (the bad case)

    @property
    def silent_rate(self) -> float:
        return self.silent_or_wrong / self.trials


def _draw_chunk(scheme: ECCScheme, pattern: str, n: int, rng):
    """Draw one chunk of *n* trials: payloads plus the corruption spec.

    The shared draw-order contract of the batched and reference tallies:
    line payloads first, then per-pattern placement arrays (victim-chip
    orderings and replacement segments for chip kills; flat byte positions
    and bit indices for scatter).
    """
    kind, param = PATTERNS[pattern]
    data = rng.integers(0, 256, (n, scheme.line_size), dtype=np.uint8)
    if kind == "chips":
        order = np.argsort(rng.random((n, scheme.data_chips)), axis=1)
        victims = order[:, :param]
        repl = rng.integers(0, 256, (n, param, scheme.chip_bytes), dtype=np.uint8)
        return data, (kind, victims, repl)
    pos = rng.integers(scheme.data_chips * scheme.chip_bytes, size=(n, param))
    bit = rng.integers(8, size=(n, param))
    return data, (kind, pos, bit)


def _corrupt(scheme: ECCScheme, chips: np.ndarray, spec) -> np.ndarray:
    """Apply a chunk's corruption spec to its ``(n, chips, chip_bytes)`` batch."""
    kind, a, b = spec
    bad = chips.copy()
    n = bad.shape[0]
    if kind == "chips":
        bad[np.arange(n)[:, None], a] = b
        return bad
    flat = bad.reshape(n, -1)
    for i in range(a.shape[1]):  # a few vector ops; duplicates self-cancel
        flat[np.arange(n), a[:, i]] ^= (1 << b[:, i]).astype(np.uint8)
    return bad


def _error(scheme: ECCScheme, chips: np.ndarray, spec) -> np.ndarray:
    """A chunk's corruption spec as an XOR error on its ``(n, chips,
    chip_bytes)`` batch: a killed chip's error is its replacement bytes XOR
    its data bytes, a scattered flip's is its bit."""
    kind, a, b = spec
    n = chips.shape[0]
    err = np.zeros(chips.shape, dtype=np.uint8)  # C order: ``flat`` is a view
    if kind == "chips":
        rows = np.arange(n)[:, None]
        err[rows, a] = b ^ chips[rows, a]
        return err
    flat = err.reshape(n, -1)
    for i in range(a.shape[1]):  # a few vector ops; duplicates self-cancel
        flat[np.arange(n), a[:, i]] ^= (1 << b[:, i]).astype(np.uint8)
    return err


def _tally_batched(scheme: ECCScheme, data: np.ndarray, spec) -> np.ndarray:
    """Chunk outcome counts ``[corrected, detected_uncorrectable, silent]``."""
    error = _error(scheme, scheme.split_to_chips(data), spec)
    ok, right = scheme.correct_errors(data, error)
    return np.array(
        [int(right.sum()), int((~ok).sum()), int((ok & ~right).sum())], dtype=np.int64
    )


def _tally_reference(scheme: ECCScheme, data: np.ndarray, spec) -> np.ndarray:
    """Per-trial oracle over the same draws (property-test reference)."""
    chips = scheme.split_to_chips(data)
    det = scheme.compute_detection(data)
    cor = scheme.compute_correction(data)
    bad = _corrupt(scheme, chips, spec)
    counts = np.zeros(3, dtype=np.int64)
    for i in range(data.shape[0]):
        res = scheme.correct_line(bad[i], det[i], cor[i])
        if res.data is None:
            counts[1] += 1
        elif np.array_equal(res.data, data[i]):
            counts[0] += 1
        else:
            counts[2] += 1
    return counts


def _cell_counts(
    scheme: ECCScheme, pattern: str, trials: int, seed: int, chunk_size: int
) -> "list[int]":
    """One (scheme, pattern) cell: chunked draw + batched tally."""
    rng = make_rng(seed)
    counts = np.zeros(3, dtype=np.int64)
    done = 0
    while done < trials:
        n = min(chunk_size, trials - done)
        data, spec = _draw_chunk(scheme, pattern, n, rng)
        counts += _tally_batched(scheme, data, spec)
        done += n
    return [int(v) for v in counts]


def _coverage_cell(
    scheme_cls: str,
    pattern: str,
    trials: int,
    seed: int,
    chunk_size: int,
) -> "tuple[str, str, list[int]]":
    """Worker entry point: one cell from primitives.

    The scheme is rebuilt from its class name (every catalog scheme is
    default-constructible), so the cell pickles cleanly and is
    bit-identical wherever it runs.
    """
    scheme = rebuild(scheme_cls)
    return scheme_cls, pattern, _cell_counts(scheme, pattern, trials, seed, chunk_size)


def coverage_study(
    schemes: "list[ECCScheme]",
    trials: "int | None" = None,
    seed: int = 0,
    jobs: "int | None" = None,
) -> "list[CoverageRow]":
    """Run the fault-pattern grid over *schemes*.

    *trials* defaults to ``REPRO_MC_TRIALS`` (else 200).  Cells are
    independent (each reseeds from *seed*) and fan out over processes;
    schemes that are not rebuildable from their class name force the
    in-process path.
    """
    from repro.experiments import parallel

    trials = mc_trials(trials, 200)
    by_name = {type(s).__name__: s for s in schemes}
    if all(rebuildable(s) for s in schemes):
        payloads = [(c, p, trials, seed, CHUNK) for c in by_name for p in PATTERNS]
        results = {
            (cls_name, pname): counts
            for cls_name, pname, counts in parallel.run_tasks(_coverage_cell, payloads, jobs=jobs)
        }
    else:
        # Schemes we can't rebuild from a class name don't cross processes.
        results = {
            (cls_name, pname): _cell_counts(s, pname, trials, seed, CHUNK)
            for cls_name, s in by_name.items()
            for pname in PATTERNS
        }
    return [
        CoverageRow(
            by_name[cls_name].name,
            pname,
            trials,
            corrected=results[(cls_name, pname)][0],
            detected_uncorrectable=results[(cls_name, pname)][1],
            silent_or_wrong=results[(cls_name, pname)][2],
        )
        for cls_name in (type(s).__name__ for s in schemes)
        for pname in PATTERNS
    ]
