"""Rare-event Monte Carlo: importance sampling and stratification.

The chunked whole-array Monte Carlo (:mod:`repro.faults.montecarlo`) runs
millions of trials per second, but the paper's headline reliability claims
live in the *tails*: the 99.9th percentile of the end-of-life materialized
fraction and the probability of exceeding a materialization budget.  Those
events have probability 1e-3 and below, so plain MC needs billions of
trials for a tight confidence interval.  This module trades trials for
*variance reduction* - orders of magnitude fewer trials at the same CI
width - with two estimators that both remain provably unbiased:

**Importance sampling (exponential tilting).**  The saturating-fault count
of each mode is Poisson; sampling from a *tilted* proposal with rates
``theta_m * lam[m]`` pushes trials toward fault-heavy trajectories, and
each trial is reweighted by the exact likelihood ratio

    w = prod_m  Poisson(k_m; lam_m) / Poisson(k_m; theta_m lam_m)
      = prod_m  exp((theta_m - 1) lam_m) * theta_m ** (-k_m)

The per-mode tilts come from one scalar argument (``tilt``) scaled
by each mode's blast radius: ``theta_m = 1 + (theta - 1) * b_m / 2``
with ``b_m`` the banks one event of mode *m* materializes
(:func:`_tilt_by_mode`).  This is the discrete analogue of exponentially
tilting the total-damage observable ``S = sum_m b_m K_m`` (whose change
of measure multiplies ``lam_m`` by ``exp(t b_m)``): the tail of the EOL
fraction is dominated by large-blast-radius MULTI_RANK events, and a
uniform tilt that ignores ``b_m`` leaves most of the tail variance on
the table.  The placement draws (channels, ranks, banks) are uniform
under both measures, so the ratio involves counts alone; the tilted run
reuses :func:`~repro.faults.montecarlo._draw_chunk` verbatim - only the
``lam`` argument changes - and the weights come from the same draw
contract.  ``E_q[w f] = E_p[f]`` exactly, so the *unnormalized* weighted
mean ``sum(w f) / n`` is unbiased for every observable at every trial
count.

**Stratified sampling over total fault count.**  The superposition of the
per-mode Poissons makes the per-trial total ``K ~ Poisson(sum lam)``, and
conditioned on ``K = k`` the mode split is multinomial
(:func:`~repro.faults.montecarlo._draw_chunk_conditional`).  Strata are
``K = 0, 1, ..., kmax-1`` plus the tail ``K >= kmax`` (sampled by inverse
CDF over the truncated Poisson); stratum probabilities are analytic, so
``E[f] = sum_h P(h) E[f | h]`` holds exactly.  The zero-event stratum -
over 80% of the probability mass at paper FIT rates - is *exact*: no
events means fraction 0, zero variance, zero samples spent.  The trial
budget over the remaining strata follows Neyman allocation
(``n_h ~ p_h sigma_h`` from a pilot round).

Both estimators emit ``(value, weight)`` streams into one aggregation
type, :class:`WeightedTally`: a streaming weighted mean, an exact
value->weight histogram (the EOL fraction distribution has few distinct
values; a nearest-merge compaction bounds it for continuous observables),
effective-sample-size tracking (``ESS = (sum w)^2 / sum w^2``), and
weighted quantiles under the same ``linear`` interpolation convention as
:meth:`EolResult.percentile <repro.faults.montecarlo.EolResult.percentile>`
- with uniform weights, :func:`weighted_percentile` *is*
``np.percentile(..., method="linear")``.  Tallies merge associatively and
round-trip through JSON, which is what makes campaigns shardable: each
shard of :func:`sharded_estimate` is an independent, deterministically
seeded run fanned out through :func:`repro.experiments.parallel.run_tasks`
and merged in shard order, so a parallel campaign is bit-identical to a
serial one.

Every weighted path retains a reference twin in the spirit of
``_run_reference``/``_chunk_reference``: the vectorized likelihood-ratio
computation (:func:`_is_log_weights`) is mirrored by a per-trial
log-pmf-difference loop (:func:`_is_log_weights_reference`), and the
unbiasedness oracle (:func:`oracle_compare`, exercised by
``tests/test_rareevent.py`` and ``benchmarks/bench_rareevent.py``) pins
weighted estimates to plain MC within analytic CI bounds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.obs import trace
from repro.faults.fit_rates import MemoryOrg
from repro.faults.montecarlo import (
    _BANKS_MATERIALIZED,
    _SAT_MODES,
    EolCapacitySim,
    _chunk_batched,
    _codec_scatter_tally,
    _draw_chunk,
    _draw_chunk_conditional,
    _draw_scatter_chunk,
    resolve_chunk,
)
from repro.util.rng import make_rng
from repro.util.envcfg import mc_trials

#: Default exponential-tilt factor of the importance sampler: the
#: smallest-blast-radius fault modes' Poisson rates are multiplied by this
#: factor (heavier modes tilt harder, scaled by banks materialized per
#: event), pushing trials toward the fault-heavy trajectories that resolve
#: the 99.9th-percentile tail.  Tuned on the fig8 default organization:
#: effective speedup at the p999 tail peaks (and plateaus) around tilt 4-6.
DEFAULT_MC_TILT = 6.0


def _resolve_tilt(tilt: "float | None") -> float:
    """Tilt factor (default :data:`DEFAULT_MC_TILT`); ``1`` is plain MC,
    and values below 1 would tilt *away* from faults, so they raise."""
    tilt = DEFAULT_MC_TILT if tilt is None else float(tilt)
    if tilt < 1:
        raise ValueError(f"mc tilt factor must be >= 1, got {tilt}")
    return tilt


#: 95% two-sided normal quantile, for confidence intervals on these estimates.
Z95 = 1.959963984540054

#: Distinct values a tally tracks exactly before nearest-merge compaction.
#: The EOL fraction distribution has a handful of distinct values, so the
#: cap exists only to bound memory for continuous observables.
MAX_TALLY_POINTS = 4096

#: Default count strata: exact strata ``K = 1 .. DEFAULT_STRATA - 1`` plus
#: the inverse-CDF tail ``K >= DEFAULT_STRATA`` (``K = 0`` is analytic).
DEFAULT_STRATA = 6

#: Minimum samples a sampled stratum receives, so no stratum with positive
#: probability is left unestimated (which would bias the estimator).
MIN_PER_STRATUM = 32

#: Estimators of :func:`run_estimate` and :func:`sharded_estimate`: plain
#: Monte Carlo, importance sampling, count stratification.
MODES = ("off", "is", "strat")

#: Shard count of :func:`sharded_estimate` - fixed rather than
#: CPU-derived so shard seeding (and therefore the merged estimate) does
#: not depend on the machine running the campaign.
DEFAULT_SHARDS = 8


# -- weighted quantiles ----------------------------------------------------------------


def weighted_percentile(values, weights=None, q: float = 50.0, samples: "int | None" = None) -> float:
    """Weighted percentile under the repo-wide ``linear`` (type-7) convention.

    Each point's weight is a *mass interval* on the cumulative-weight
    axis; with ``u = W / samples`` the mass of one nominal sample
    (*samples* defaults to ``len(values)``), value *k* spanning masses
    ``(S_k - w_k, S_k]`` anchors the quantile function at positions
    ``S_{k-1} / (W - u)`` and ``(S_k - u) / (W - u)`` (one anchor when
    ``w_k < u``), linearly interpolated in between.  For unit weights the
    anchors coincide at numpy's ``(k - 1) / (n - 1)`` grid, and for
    *integer* weights with ``samples = sum(weights)`` the result equals
    ``np.percentile(np.repeat(values, weights), q, method="linear")``
    exactly - duplicated samples produce the same flat quantile segments
    - which is what pins the weighted estimators to
    :meth:`EolResult.percentile <repro.faults.montecarlo.EolResult.percentile>`
    on the plain-MC special case.  Zero-weight points are dropped (they
    must not anchor interpolation).
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("weighted_percentile of an empty sample")
    if weights is None:
        return float(np.percentile(values, q, method="linear"))
    weights = np.asarray(weights, dtype=float)
    if weights.shape != values.shape:
        raise ValueError("values and weights must have matching shapes")
    if np.any(weights < 0):
        raise ValueError("weights must be >= 0")
    keep = weights > 0
    if not keep.any():
        raise ValueError("at least one weight must be > 0")
    values, weights = values[keep], weights[keep]
    if values.size == 1:
        return float(values[0])
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    s = np.cumsum(w)
    total = float(s[-1])
    u = total / (samples if samples else v.size)
    denom = total - u
    if denom <= 0:  # one nominal sample's worth of mass: no interpolation span
        return float(v[-1])
    last = (s - u) / denom
    first = np.where(w >= u, (s - w) / denom, last)
    positions = np.empty(2 * v.size)
    positions[0::2] = first
    positions[1::2] = last
    return float(np.interp(q / 100.0, positions, np.repeat(v, 2)))


# -- streaming weighted aggregation ----------------------------------------------------


class WeightedTally:
    """Streaming weighted aggregation: mean, ESS, exact histogram, quantiles.

    Accumulates ``(value, weight)`` pairs with per-trial weights whose
    expectation is one under the sampling design (plain MC: all ones;
    importance sampling: likelihood ratios; stratification: design
    weights), so :attr:`mean` ``= sum(w v) / n`` is unbiased.  The
    histogram maps each distinct value to its total weight *and* total
    squared weight, which makes post-hoc tail probabilities - and their
    standard errors - exact for any threshold.  Tallies merge
    associatively and round-trip through :meth:`to_dict`/:meth:`from_dict`
    (the form a campaign shard returns its estimate in).
    """

    __slots__ = ("n", "sum_w", "sum_w_sq", "sum_wv", "sum_wv_sq", "_hist", "compacted")

    def __init__(self):
        self.n = 0  #: samples absorbed
        self.sum_w = 0.0  #: sum of weights
        self.sum_w_sq = 0.0  #: sum of squared weights
        self.sum_wv = 0.0  #: sum of weight * value
        self.sum_wv_sq = 0.0  #: sum of (weight * value)^2
        self._hist: "dict[float, list[float]]" = {}  #: value -> [sum w, sum w^2]
        self.compacted = 0  #: points merged away by compaction (0 = exact)

    def add(self, values, weights=None) -> None:
        """Absorb a batch of samples (*weights* ``None`` means all-ones)."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        if weights is None:
            weights = np.ones_like(values)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != values.shape:
                raise ValueError("values and weights must have matching shapes")
        self.n += int(values.size)
        w_sq = weights * weights
        wv = weights * values
        self.sum_w += float(weights.sum())
        self.sum_w_sq += float(w_sq.sum())
        self.sum_wv += float(wv.sum())
        self.sum_wv_sq += float((wv * wv).sum())
        uniq, inverse = np.unique(values, return_inverse=True)
        w_tot = np.bincount(inverse, weights=weights)
        w2_tot = np.bincount(inverse, weights=w_sq)
        hist = self._hist
        for v, a, b in zip(uniq.tolist(), w_tot.tolist(), w2_tot.tolist()):
            cell = hist.get(v)
            if cell is None:
                hist[v] = [a, b]
            else:
                cell[0] += a
                cell[1] += b
        if len(hist) > MAX_TALLY_POINTS:
            self._compact()

    def _compact(self) -> None:
        """Merge nearest-neighbour values until half the cap remains.

        Weights add; the merged value is the weight-averaged midpoint, so
        the (weighted) mean of the histogram is preserved and quantiles
        move by at most the local gap.  Only continuous observables ever
        trigger this; :attr:`compacted` records the loss of exactness.

        A heap over neighbour gaps replays :meth:`_compact_reference`
        merge for merge (ties to the leftmost pair, as ``np.argmin``) in
        O(n log n): an entry is stale once either end has merged since it
        was pushed, and is skipped when popped.
        """
        items = sorted(self._hist.items())
        n = len(items)
        vals = [v for v, _ in items]
        cells = [cell for _, cell in items]
        nxt = list(range(1, n + 1))
        prv = list(range(-1, n - 1))
        ver = [0] * n  # bumped on every merge into a node; -1 once merged away
        heap = [(vals[i + 1] - vals[i], i, i + 1, 0, 0) for i in range(n - 1)]
        heapq.heapify(heap)
        live = n
        target = MAX_TALLY_POINTS // 2
        while live > target:
            _, i, j, vi, vj = heapq.heappop(heap)
            if ver[i] != vi or ver[j] != vj:
                continue
            (w0, q0), (w1, q1), v0, v1 = cells[i], cells[j], vals[i], vals[j]
            w = w0 + w1
            vals[i] = (v0 * w0 + v1 * w1) / w if w > 0 else 0.5 * (v0 + v1)
            cells[i] = [w, q0 + q1]
            ver[i] += 1
            ver[j] = -1
            k = nxt[i] = nxt[j]
            if k < n:
                prv[k] = i
                heapq.heappush(heap, (vals[k] - vals[i], i, k, ver[i], ver[k]))
            h = prv[i]
            if h >= 0:
                heapq.heappush(heap, (vals[i] - vals[h], h, i, ver[h], ver[i]))
            live -= 1
            self.compacted += 1
        hist = {}
        i = 0
        while i < n:
            hist[vals[i]] = cells[i]
            i = nxt[i]
        self._hist = hist

    def _compact_reference(self) -> None:
        """The quadratic oracle for :meth:`_compact`: rescan every gap per merge."""
        items = sorted(self._hist.items())
        target = MAX_TALLY_POINTS // 2
        while len(items) > target:
            values = [v for v, _ in items]
            gaps = np.diff(values)
            i = int(np.argmin(gaps))
            (v0, (w0, q0)), (v1, (w1, q1)) = items[i], items[i + 1]
            w = w0 + w1
            merged = (v0 * w0 + v1 * w1) / w if w > 0 else 0.5 * (v0 + v1)
            items[i : i + 2] = [(merged, [w, q0 + q1])]
            self.compacted += 1
        self._hist = {v: cell for v, cell in items}

    # -- estimators --------------------------------------------------------------------

    @property
    def mean(self) -> float:
        """Unnormalized weighted mean ``sum(w v) / n`` (unbiased)."""
        return self.sum_wv / self.n if self.n else 0.0

    @property
    def se_mean(self) -> float:
        """Standard error of :attr:`mean` under iid sampling."""
        if self.n < 2:
            return float("inf")
        var = max(0.0, self.sum_wv_sq / self.n - self.mean**2)
        return math.sqrt(var / self.n)

    @property
    def ess(self) -> float:
        """Kong effective sample size ``(sum w)^2 / sum w^2``."""
        return self.sum_w**2 / self.sum_w_sq if self.sum_w_sq > 0 else 0.0

    @property
    def weight_cv_sq(self) -> float:
        """Squared coefficient of variation of the weights (0 = plain MC)."""
        if self.sum_w <= 0:
            return 0.0
        return max(0.0, self.n * self.sum_w_sq / self.sum_w**2 - 1.0)

    def tail_stats(self, threshold: float) -> "tuple[float, float]":
        """``(sum of w, sum of w^2)`` over samples with value >= *threshold*."""
        w = w_sq = 0.0
        for v, (a, b) in self._hist.items():
            if v >= threshold:
                w += a
                w_sq += b
        return w, w_sq

    def tail_probability(self, threshold: float) -> float:
        """Unbiased estimate of ``P(value >= threshold)``."""
        return self.tail_stats(threshold)[0] / self.n if self.n else 0.0

    def se_tail(self, threshold: float) -> float:
        """Standard error of :meth:`tail_probability` under iid sampling."""
        if self.n < 2:
            return float("inf")
        w, w_sq = self.tail_stats(threshold)
        p = w / self.n
        var = max(0.0, w_sq / self.n - p * p)
        return math.sqrt(var / self.n)

    def percentile(self, q: float = 99.9) -> float:
        """Weighted percentile of the histogram (``linear`` convention).

        Passes the absorbed sample count so the mass of one nominal
        sample is ``sum_w / n``; with unit weights this reproduces
        ``np.percentile`` over the raw sample exactly.
        """
        values = np.array(sorted(self._hist))
        weights = np.array([self._hist[v][0] for v in values.tolist()])
        return weighted_percentile(values, weights, q, samples=self.n)

    # -- composition -------------------------------------------------------------------

    def merge(self, other: "WeightedTally") -> "WeightedTally":
        """Absorb *other* (associative; shard aggregation)."""
        self.n += other.n
        self.sum_w += other.sum_w
        self.sum_w_sq += other.sum_w_sq
        self.sum_wv += other.sum_wv
        self.sum_wv_sq += other.sum_wv_sq
        hist = self._hist
        for v, (a, b) in other._hist.items():
            cell = hist.get(v)
            if cell is None:
                hist[v] = [a, b]
            else:
                cell[0] += a
                cell[1] += b
        self.compacted += other.compacted
        if len(hist) > MAX_TALLY_POINTS:
            self._compact()
        return self

    def scaled(self, factor: float) -> "WeightedTally":
        """A copy with every weight multiplied by *factor* (values intact).

        Turns a unit-weight per-stratum tally into its mixture-view
        contribution (weight ``p_h n / n_h`` per sample).
        """
        out = WeightedTally()
        out.n = self.n
        out.sum_w = self.sum_w * factor
        out.sum_w_sq = self.sum_w_sq * factor**2
        out.sum_wv = self.sum_wv * factor
        out.sum_wv_sq = self.sum_wv_sq * factor**2
        out._hist = {v: [a * factor, b * factor**2] for v, (a, b) in self._hist.items()}
        out.compacted = self.compacted
        return out

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "sum_w": self.sum_w,
            "sum_w_sq": self.sum_w_sq,
            "sum_wv": self.sum_wv,
            "sum_wv_sq": self.sum_wv_sq,
            "hist": [[v, a, b] for v, (a, b) in sorted(self._hist.items())],
            "compacted": self.compacted,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WeightedTally":
        out = cls()
        out.n = int(d["n"])
        out.sum_w = float(d["sum_w"])
        out.sum_w_sq = float(d["sum_w_sq"])
        out.sum_wv = float(d["sum_wv"])
        out.sum_wv_sq = float(d["sum_wv_sq"])
        out._hist = {float(v): [float(a), float(b)] for v, a, b in d["hist"]}
        out.compacted = int(d.get("compacted", 0))
        return out


# -- estimates (plain / importance-sampled / stratified) -------------------------------


@dataclass
class WeightedEstimate:
    """Plain-MC or importance-sampled estimate: one iid weighted stream."""

    mode: str  #: "off" (plain) or "is"
    tally: WeightedTally
    tilt: float = 1.0  #: proposal tilt factor (1 = plain)

    @property
    def trials(self) -> int:
        return self.tally.n

    @property
    def ess(self) -> float:
        return self.tally.ess

    @property
    def mean(self) -> float:
        return self.tally.mean

    @property
    def se_mean(self) -> float:
        return self.tally.se_mean

    def tail_probability(self, threshold: float) -> float:
        return self.tally.tail_probability(threshold)

    def se_tail(self, threshold: float) -> float:
        return self.tally.se_tail(threshold)

    def percentile(self, q: float = 99.9) -> float:
        return self.tally.percentile(q)

    def merge(self, other: "WeightedEstimate") -> "WeightedEstimate":
        if (self.mode, self.tilt) != (other.mode, other.tilt):
            raise ValueError(
                f"cannot merge estimates with different designs: "
                f"{(self.mode, self.tilt)} vs {(other.mode, other.tilt)}"
            )
        self.tally.merge(other.tally)
        return self

    def to_dict(self) -> dict:
        return {
            "kind": "weighted",
            "mode": self.mode,
            "tilt": self.tilt,
            "tally": self.tally.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WeightedEstimate":
        return cls(
            mode=str(d["mode"]),
            tally=WeightedTally.from_dict(d["tally"]),
            tilt=float(d["tilt"]),
        )


@dataclass
class StratumState:
    """One count stratum: analytic probability + unit-weight sample tally."""

    k: int  #: stratum label: exact count, or ``kmax`` for the tail stratum
    prob: float  #: analytic P(K in stratum)
    tally: WeightedTally = field(default_factory=WeightedTally)
    exact: "float | None" = None  #: observable value known analytically (K=0)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "prob": self.prob,
            "tally": self.tally.to_dict(),
            "exact": self.exact,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StratumState":
        return cls(
            k=int(d["k"]),
            prob=float(d["prob"]),
            tally=WeightedTally.from_dict(d["tally"]),
            exact=None if d.get("exact") is None else float(d["exact"]),
        )


@dataclass
class StratifiedEstimate:
    """Stratified estimate over total-fault-count strata.

    Sampled strata hold unit-weight tallies; design weights
    ``p_h n / n_h`` are applied at aggregation time, so merging shards
    (which changes every ``n_h``) needs no reweighting.  The zero-event
    stratum is analytic (``exact=0.0``): it contributes its probability
    mass to quantiles and zero variance to every standard error.
    """

    mode: str  #: always "strat"
    strata: "list[StratumState]"

    @property
    def trials(self) -> int:
        return sum(s.tally.n for s in self.strata)

    def mixture_tally(self) -> WeightedTally:
        """The weighted mixture view (quantiles, ESS, histogram).

        Per-sample weight in stratum *h* is ``p_h n / n_h`` with *n* the
        total sampled trials; the exact stratum enters as mass ``p_h n``
        at its known value with zero squared weight (it is not sampled).
        """
        n = max(1, self.trials)
        out = WeightedTally()
        for s in self.strata:
            if s.exact is not None:
                cell = out._hist.setdefault(s.exact, [0.0, 0.0])
                cell[0] += s.prob * n
                out.sum_w += s.prob * n
                out.sum_wv += s.prob * n * s.exact
                out.sum_wv_sq += 0.0
            elif s.tally.n:
                out.merge(s.tally.scaled(s.prob * n / s.tally.n))
        return out

    @property
    def ess(self) -> float:
        """ESS of the sampled mixture (the exact stratum is free)."""
        return self.mixture_tally().ess

    def _combine(self, stat) -> "tuple[float, float]":
        """Stratified estimate + SE for a per-stratum ``(mean, var)`` map."""
        total = 0.0
        variance = 0.0
        for s in self.strata:
            if s.exact is not None:
                total += s.prob * stat(s, exact=True)
                continue
            n_h = s.tally.n
            if n_h == 0:
                # Unsampled positive-probability stratum: the estimate is
                # biased low; surface it as infinite uncertainty rather
                # than silently ignoring the mass.
                variance = float("inf")
                continue
            mean_h, var_h = stat(s, exact=False)
            total += s.prob * mean_h
            if n_h > 1 and math.isfinite(variance):
                variance += (s.prob**2) * var_h / n_h
            else:
                variance = float("inf")
        return total, math.sqrt(variance) if math.isfinite(variance) else float("inf")

    @property
    def mean(self) -> float:
        return self._mean_se()[0]

    @property
    def se_mean(self) -> float:
        return self._mean_se()[1]

    def _mean_se(self) -> "tuple[float, float]":
        def stat(s, exact):
            if exact:
                return s.exact
            t = s.tally  # unit weights: sum_wv == sum f, sum_wv_sq == sum f^2
            mean_h = t.sum_wv / t.n
            var_h = max(0.0, (t.sum_wv_sq - t.n * mean_h**2) / max(1, t.n - 1))
            return mean_h, var_h

        return self._combine(stat)

    def _tail_se(self, threshold: float) -> "tuple[float, float]":
        def stat(s, exact):
            if exact:
                return 1.0 if s.exact >= threshold else 0.0
            count = s.tally.tail_stats(threshold)[0]  # unit weights: a count
            p_h = count / s.tally.n
            var_h = p_h * (1.0 - p_h) * s.tally.n / max(1, s.tally.n - 1)
            return p_h, var_h

        return self._combine(stat)

    def tail_probability(self, threshold: float) -> float:
        return self._tail_se(threshold)[0]

    def se_tail(self, threshold: float) -> float:
        return self._tail_se(threshold)[1]

    def percentile(self, q: float = 99.9) -> float:
        return self.mixture_tally().percentile(q)

    def merge(self, other: "StratifiedEstimate") -> "StratifiedEstimate":
        if [s.k for s in self.strata] != [s.k for s in other.strata]:
            raise ValueError("cannot merge stratified estimates with different strata")
        for mine, theirs in zip(self.strata, other.strata):
            if not math.isclose(mine.prob, theirs.prob, rel_tol=1e-12):
                raise ValueError("cannot merge strata with different probabilities")
            mine.tally.merge(theirs.tally)
        return self

    def to_dict(self) -> dict:
        return {
            "kind": "stratified",
            "mode": self.mode,
            "strata": [s.to_dict() for s in self.strata],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StratifiedEstimate":
        return cls(
            mode=str(d["mode"]),
            strata=[StratumState.from_dict(s) for s in d["strata"]],
        )


def estimate_from_dict(d: dict) -> "WeightedEstimate | StratifiedEstimate":
    """Rehydrate an estimate from its :meth:`to_dict` form (shard results)."""
    kind = d.get("kind")
    if kind == "weighted":
        return WeightedEstimate.from_dict(d)
    if kind == "stratified":
        return StratifiedEstimate.from_dict(d)
    raise ValueError(f"unknown estimate kind {kind!r}")


# -- importance sampling ---------------------------------------------------------------


def _tilt_by_mode(org: MemoryOrg, tilt: float) -> "dict":
    """Per-mode proposal tilts from the scalar knob, scaled by blast radius.

    ``theta_m = 1 + (theta - 1) * b_m / 2`` where ``b_m`` is the banks one
    event of mode *m* materializes (2 for the smallest modes, so they tilt
    by exactly *theta*; ``2 * banks_per_rank`` for MULTI_RANK).  The tail
    of the EOL fraction is reached by large-damage trajectories, and the
    exponential change of measure for the total damage ``sum b_m K_m``
    tilts each rate by a factor growing with ``b_m``; this linearization
    keeps one interpretable knob while tilting heavy modes harder.
    ``theta = 1`` maps to all-ones (plain MC) for every geometry.
    """
    out = {}
    for m in _SAT_MODES:
        banks = _BANKS_MATERIALIZED[m]
        if banks is None:  # MULTI_RANK: all banks of two ranks
            banks = 2 * org.banks_per_rank
        out[m] = 1.0 + (tilt - 1.0) * banks / 2.0
    return out


def _is_log_weights(draws, lam: dict, tilts: dict) -> np.ndarray:
    """Vectorized per-trial log likelihood ratios from a tilted chunk.

    Placements are measure-invariant, so only the per-mode Poisson counts
    enter:  ``log w = sum_m [(theta_m - 1) lam_m - k_m log(theta_m)]``.
    """
    n = next(iter(draws.values()))[0].shape[0]
    logw = np.zeros(n)
    for m in _SAT_MODES:
        theta = tilts[m]
        if theta == 1.0:
            continue
        counts = draws[m][0]
        logw += (theta - 1.0) * lam[m] - counts * math.log(theta)
    return logw


def _is_log_weights_reference(draws, lam: dict, tilts: dict) -> np.ndarray:
    """Per-trial reference for :func:`_is_log_weights`.

    Walks every trial and evaluates the two Poisson log-pmfs directly
    (``-lam + k log lam - lgamma(k+1)``), rather than the algebraically
    reduced ratio the vectorized path uses - the same pattern as
    ``_chunk_reference`` mirroring ``_chunk_batched``.
    """

    def log_pmf(k: int, rate: float) -> float:
        if rate == 0.0:
            return 0.0 if k == 0 else float("-inf")
        return -rate + k * math.log(rate) - math.lgamma(k + 1)

    n = next(iter(draws.values()))[0].shape[0]
    logw = np.zeros(n)
    for t in range(n):
        acc = 0.0
        for m in _SAT_MODES:
            k = int(draws[m][0][t])
            acc += log_pmf(k, lam[m]) - log_pmf(k, tilts[m] * lam[m])
        logw[t] = acc
    return logw


def run_plain(
    sim: EolCapacitySim,
    trials: "int | None" = None,
    chunk_size: "int | None" = None,
) -> WeightedEstimate:
    """Plain MC through the weighted pipeline (all weights one).

    The ``mode="off"`` leg of every campaign: identical draws to
    :meth:`EolCapacitySim.run`, aggregated into a :class:`WeightedTally`
    so plain runs, IS runs, and stratified runs are directly comparable.
    """
    return _run_weighted(sim, trials, chunk_size, tilt=1.0, mode="off")


def run_is(
    sim: EolCapacitySim,
    trials: "int | None" = None,
    tilt: "float | None" = None,
    chunk_size: "int | None" = None,
) -> WeightedEstimate:
    """Importance-sampled run: exponential tilt + exact per-trial weights."""
    tilt = _resolve_tilt(tilt)
    return _run_weighted(sim, trials, chunk_size, tilt=tilt, mode="is")


def _run_weighted(sim, trials, chunk_size, tilt, mode) -> WeightedEstimate:
    trials = mc_trials(trials, 20000)
    chunk_size = resolve_chunk(chunk_size)
    lam = sim._lambdas()
    tilts = _tilt_by_mode(sim.org, tilt)
    lam_q = {m: tilts[m] * lam[m] for m in _SAT_MODES}
    tally = WeightedTally()
    done = 0
    while done < trials:
        n = min(chunk_size, trials - done)
        draws = _draw_chunk(sim.rng, sim.org, lam_q, n)
        fractions = _chunk_batched(sim.org, draws, n)
        weights = None if tilt == 1.0 else np.exp(_is_log_weights(draws, lam, tilts))
        tally.add(fractions, weights)
        done += n
    return WeightedEstimate(mode=mode, tally=tally, tilt=tilt)


def run_is_coverage(
    scheme,
    trials: "int | None" = None,
    rate: float = 0.05,
    tilt: "float | None" = None,
    chunk_size: "int | None" = None,
    seed: int = 0,
    jobs: "int | None" = None,
) -> WeightedEstimate:
    """Tilted codec campaign: silent-corruption probability under bit scatter.

    The end-to-end consumer of the batched RS decode kernel: per trial a
    random line accumulates ``Poisson(rate)`` scattered bit flips, the
    chunk runs through one batched ``scheme.correct_lines`` call, and the
    observable is the miscorrection/silent-corruption indicator (claimed
    ``ok`` with a wrong payload - the bucket ``experiments.coverage``
    calls ``silent_or_wrong``).  At realistic scatter rates that event
    needs multiple in-line flips, so its probability is deep in the tail;
    exponentially tilting the flip-count distribution to
    ``Poisson(tilt * rate)`` over-samples fault-heavy trials - exactly
    the regime the compiled decode core exists for, since most words
    arrive dirty - and each trial carries the exact likelihood ratio
    ``exp((tilt - 1) rate) * tilt**(-k)`` (placements are uniform under
    both measures and cancel).  ``tilt=1.0`` degrades to plain MC with
    unit weights; estimates are bit-identical across the native and
    scalar-oracle decode paths because the decoders themselves are.

    All chunks come from one generator stream.  With ``jobs > 1``
    (``REPRO_JOBS``/cpu count by default) and a scheme
    :func:`repro.ecc.rebuildable` from its class name, the decode fans
    out through :func:`repro.experiments.parallel.run_tasks`: the parent
    records the generator state at the start of each chunk and draws the
    chunk only to advance the stream and keep its flip counts; each of
    ``jobs`` slices per chunk is one task that redraws the chunk from the
    recorded state and decodes its own trials.  Chunks are tallied in
    order, so the estimate is bit-identical to the in-process run at
    every worker count.
    """
    from repro import ecc
    from repro.experiments import parallel

    trials = mc_trials(trials, 20000)
    chunk_size = resolve_chunk(chunk_size)
    tilt = _resolve_tilt(tilt)
    jobs = parallel.default_jobs() if jobs is None else int(jobs)
    mode = "off" if tilt == 1.0 else "is"
    rng = make_rng(seed)
    sizes = [min(chunk_size, trials - lo) for lo in range(0, trials, chunk_size)]
    if jobs > 1 and ecc.rebuildable(scheme):
        chunks = _pooled_coverage_chunks(scheme, rng, tilt * rate, sizes, jobs)
    else:
        chunks = _coverage_chunks(scheme, rng, tilt * rate, sizes)
    tally = WeightedTally()
    for counts, wrong in chunks:
        weights = (
            None
            if tilt == 1.0
            else np.exp((tilt - 1.0) * rate - counts * math.log(tilt))
        )
        tally.add(wrong, weights)
    return WeightedEstimate(mode=mode, tally=tally, tilt=tilt)


def _coverage_chunks(scheme, rng, rate: float, sizes: "list[int]"):
    """In-process chunks of :func:`run_is_coverage`: ``(counts, wrong)`` each."""
    for n in sizes:
        data, counts, pos, bit = _draw_scatter_chunk(rng, scheme, rate, n)
        yield counts, _codec_scatter_tally(scheme, data, counts, pos, bit)


def _pooled_coverage_chunks(scheme, rng, rate: float, sizes: "list[int]", jobs: int):
    """The chunks of :func:`_coverage_chunks`, decoded by ``jobs`` slice
    tasks each in one engine campaign and yielded in chunk order."""
    from repro.experiments import parallel

    name = type(scheme).__name__
    counts, left, payloads = [], [], []
    for c, n in enumerate(sizes):
        state = rng.bit_generator.state
        counts.append(_draw_scatter_chunk(rng, scheme, rate, n)[1])
        bounds = [n * j // jobs for j in range(jobs + 1)]
        slices = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        left.append(len(slices))
        payloads += [(name, state, n, rate, c, lo, hi) for lo, hi in slices]
    wrong = [np.zeros(n) for n in sizes]
    ready = 0
    for c, hits in parallel.run_tasks(_coverage_slice, payloads, jobs=jobs):
        wrong[c][hits] = 1.0
        left[c] -= 1
        while ready < len(sizes) and left[ready] == 0:
            yield counts[ready], wrong[ready]
            wrong[ready] = None
            ready += 1


def _coverage_slice(
    scheme_cls: str, state: dict, n: int, rate: float, chunk: int, lo: int, hi: int
) -> "tuple[int, np.ndarray]":
    """Worker entry point: trials ``[lo, hi)`` of one :func:`run_is_coverage` chunk.

    Rebuilds the scheme from its class name, redraws the *n*-trial chunk
    from the recorded generator *state* and decodes only the slice;
    returns *chunk* and the chunk indices of the wrong trials.
    """
    from repro import ecc

    scheme = ecc.rebuild(scheme_cls)
    rng = np.random.Generator(getattr(np.random, state["bit_generator"])())
    rng.bit_generator.state = state
    data, counts, pos, bit = _draw_scatter_chunk(rng, scheme, rate, n)
    starts = np.concatenate(([0], np.cumsum(counts)))
    flips = slice(starts[lo], starts[hi])
    wrong = _codec_scatter_tally(scheme, data[lo:hi], counts[lo:hi], pos[flips], bit[flips])
    return chunk, lo + np.flatnonzero(wrong)


# -- stratified sampling ---------------------------------------------------------------


def _poisson_pmf(k: int, lam: float) -> float:
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) if lam > 0 else (
        1.0 if k == 0 else 0.0
    )


def _tail_pmf(lam_total: float, kmax: int) -> "list[float]":
    """The pmf terms ``P(K = k)``, ``k = kmax, kmax + 1, ...``, of the tail.

    Summing these directly is what keeps the tail accurate: ``1 - P(K <
    kmax)`` cancels at small rates (at fig8's 2-channel rate, ``lam_total
    ~= 0.0518``, and ``kmax = 6`` it is off by 1.4e-6 relative).  The
    table stops once past the mode (``k > lam_total``) a term no longer
    changes the running sum: every later term is smaller still, so the
    sum and the cumulative table are those of the untruncated series.
    Rates of ~10,000 and up outgrow the table's hard stop at 10,001 terms.
    """
    pmf = []
    acc = 0.0
    for k in range(kmax, kmax + 10_001):
        p = _poisson_pmf(k, lam_total)
        if k > lam_total and len(pmf) >= 2 and acc + p == acc:
            break
        pmf.append(p)
        acc += p
    return pmf


def _stratum_probs(lam_total: float, kmax: int) -> "list[float]":
    """Analytic probabilities of strata ``K=0..kmax-1`` and the ``>=kmax`` tail."""
    head = [_poisson_pmf(k, lam_total) for k in range(kmax)]
    return head + [math.fsum(_tail_pmf(lam_total, kmax))]


def _sample_tail_counts(
    rng: np.random.Generator, lam_total: float, kmax: int, n: int
) -> np.ndarray:
    """Sample *n* counts from ``Poisson(lam_total)`` conditioned on ``K >= kmax``.

    Inverse CDF over the truncated tail: uniforms are mapped through
    ``searchsorted`` on the normalized cumulative :func:`_tail_pmf`.
    """
    cdf = np.cumsum(_tail_pmf(lam_total, kmax))
    cdf /= cdf[-1]
    u = rng.random(n)
    return kmax + np.searchsorted(cdf, u, side="left").astype(np.int64)


def _sample_stratum(sim, lam, kmax: int, k: int, n: int) -> np.ndarray:
    """Draw *n* conditional trials of stratum *k* and return their fractions."""
    lam_total = sum(lam[m] for m in _SAT_MODES)
    if k >= kmax:
        totals = _sample_tail_counts(sim.rng, lam_total, kmax, n)
    else:
        totals = np.full(n, k, dtype=np.int64)
    draws = _draw_chunk_conditional(sim.rng, sim.org, lam, totals)
    return _chunk_batched(sim.org, draws, n)


def _allocate(budget: int, shares: "list[float]", minimum: int) -> "list[int]":
    """Integer split of *budget* in the ratio of *shares*, with a floor.

    Every stratum with positive share receives at least *minimum* samples
    (bias guard); the remainder is split largest-share-first.
    """
    active = [i for i, s in enumerate(shares) if s > 0]
    out = [0] * len(shares)
    if not active or budget <= 0:
        return out
    floor = min(minimum, max(1, budget // len(active)))
    for i in active:
        out[i] = floor
    remaining = budget - floor * len(active)
    if remaining <= 0:
        return out
    total = sum(shares[i] for i in active)
    quotas = [(shares[i] / total) * remaining for i in active]
    for j, i in enumerate(active):
        out[i] += int(quotas[j])
    leftover = remaining - sum(int(q) for q in quotas)
    # Largest fractional remainders first; ties broken by stratum order.
    order = sorted(range(len(active)), key=lambda j: quotas[j] - int(quotas[j]), reverse=True)
    for j in order[:leftover]:
        out[active[j]] += 1
    return out


def run_stratified(
    sim: EolCapacitySim,
    trials: "int | None" = None,
    strata: "int | None" = None,
    chunk_size: "int | None" = None,
    target: "tuple | None" = None,
) -> StratifiedEstimate:
    """Stratified run over total-fault-count strata.

    *strata* is ``kmax``: exact strata ``K = 1 .. kmax-1`` plus the
    ``K >= kmax`` tail (default :data:`DEFAULT_STRATA`); ``K = 0`` is
    analytic and consumes no samples.  The budget follows Neyman
    allocation (``n_h ~ p_h sigma_h``, with ``sigma_h`` estimated from a
    pilot round of :data:`MIN_PER_STRATUM` samples per stratum; the pilot
    samples count toward the budget).
    *trials* is the total *sampled* budget.  With a ``("tail", x)``
    *target*, ``sigma_h`` is that of the tail indicator, so the budget
    goes where ``P(fraction >= x)`` is uncertain.
    """
    trials = mc_trials(trials, 20000)
    chunk_size = resolve_chunk(chunk_size)
    kmax = DEFAULT_STRATA if strata is None else int(strata)
    if kmax < 2:
        raise ValueError(f"strata (kmax) must be >= 2, got {kmax}")
    lam = sim._lambdas()
    lam_total = sum(lam[m] for m in _SAT_MODES)
    probs = _stratum_probs(lam_total, kmax)
    states = [StratumState(k=0, prob=probs[0], exact=0.0)]
    states += [StratumState(k=k, prob=probs[k]) for k in range(1, kmax + 1)]
    sampled = [s for s in states if s.exact is None and s.prob > 0]

    # Pilot round: the variance source for Neyman shares, and the bias
    # guard that every positive-probability stratum is represented.
    pilot = min(MIN_PER_STRATUM, max(1, trials // max(1, len(sampled))))
    for s in sampled:
        s.tally.add(_sample_stratum(sim, lam, kmax, s.k, pilot))
    done = sum(s.tally.n for s in sampled)

    indicator = target is not None and target[0] == "tail"

    def sigma(s: StratumState) -> float:
        t = s.tally
        if indicator:
            p_h = t.tail_stats(target[1])[0] / t.n
            return math.sqrt(p_h * (1.0 - p_h))
        mean_h = t.sum_wv / t.n
        return math.sqrt(max(0.0, t.sum_wv_sq / t.n - mean_h**2))

    shares = [s.prob * sigma(s) for s in sampled]
    if not any(shares):  # a pilot too small to see any variance
        shares = [s.prob for s in sampled]

    plan = _allocate(max(0, trials - done), shares, MIN_PER_STRATUM)
    remaining = {s.k: plan[i] for i, s in enumerate(sampled)}
    while any(remaining.values()):
        for s in sampled:
            n = min(chunk_size, remaining[s.k])
            if n <= 0:
                continue
            s.tally.add(_sample_stratum(sim, lam, kmax, s.k, n))
            remaining[s.k] -= n
    return StratifiedEstimate(mode="strat", strata=states)


# -- front door + sharded campaigns ----------------------------------------------------


def _check_mode(mode: str) -> str:
    """*mode* itself if it names an estimator in :data:`MODES`, else raise."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {'|'.join(MODES)}, got {mode!r}")
    return mode


def run_estimate(
    sim: EolCapacitySim,
    mode: str = "off",
    trials: "int | None" = None,
    *,
    tilt: "float | None" = None,
    strata: "int | None" = None,
) -> "WeightedEstimate | StratifiedEstimate":
    """One-process front door: dispatch on the estimator *mode*."""
    mode = _check_mode(mode)
    if mode == "off":
        return run_plain(sim, trials)
    if mode == "is":
        return run_is(sim, trials, tilt)
    return run_stratified(sim, trials, strata)


def _shard_worker(
    channels: int,
    ranks_per_channel: int,
    chips_per_rank: int,
    banks_per_rank: int,
    mode: str,
    trials: int,
    seed: int,
    shard: int,
    tilt: float,
    strata: int,
) -> "tuple[tuple, dict]":
    """One campaign shard from primitives (picklable, pure, self-seeding).

    Seeded from ``SeedSequence((seed, shard))`` so a shard's estimate is
    bit-identical wherever it runs.  Returns ``((org dims, shard), estimate
    dict)``, the key naming which organization's shard it is.
    """
    dims = (channels, ranks_per_channel, chips_per_rank, banks_per_rank)
    sim = EolCapacitySim(
        MemoryOrg(*dims), seed=np.random.default_rng(np.random.SeedSequence((seed, shard)))
    )
    with trace.span("mc.shard", "mc", shard=shard, mode=mode, trials=trials):
        est = run_estimate(sim, mode, trials, tilt=tilt, strata=strata)
    return (dims, shard), est.to_dict()


def sharded_estimate(
    org: "MemoryOrg | None" = None,
    *,
    mode: str = "off",
    trials: "int | None" = None,
    seed: int = 0,
    jobs: "int | None" = None,
) -> "WeightedEstimate | StratifiedEstimate":
    """Sharded rare-event campaign through the campaign engine.

    The one-organization case of :func:`sharded_estimates`.
    """
    return sharded_estimates([org or MemoryOrg()], mode=mode, trials=trials, seed=seed, jobs=jobs)[0]


def sharded_estimates(
    orgs: "list[MemoryOrg]",
    *,
    mode: str = "off",
    trials: "int | None" = None,
    seed: int = 0,
    jobs: "int | None" = None,
) -> "list[WeightedEstimate | StratifiedEstimate]":
    """One sharded rare-event campaign per organization in *orgs*, all
    through one engine campaign.

    *mode* picks the estimator (:data:`MODES`: ``off`` plain MC, ``is``
    importance sampling at :data:`DEFAULT_MC_TILT`, ``strat`` count
    stratification over :data:`DEFAULT_STRATA`; anything else raises
    ``ValueError``).  Each organization's trial budget splits over
    :data:`DEFAULT_SHARDS` independent, deterministically seeded shard
    runs; the shards of every organization fan out in one
    :func:`repro.experiments.parallel.run_tasks` call (``jobs``;
    ``REPRO_JOBS``/cpu count by default, 1 = in-process), so one pool
    serves them all; a shard that fails (or that a dying pool worker
    leaves unfinished) surfaces in the engine's
    :class:`~repro.experiments.parallel.CampaignError`.  Each organization's completed shards are merged
    in shard order, so serial and parallel campaigns agree bit-for-bit.
    Returns the estimates in the order of *orgs*.
    """
    from repro.experiments import parallel

    mode = _check_mode(mode)
    trials = mc_trials(trials, 20000)
    shards = DEFAULT_SHARDS
    base, extra = divmod(trials, shards)
    shard_trials = [base + (1 if s < extra else 0) for s in range(shards)]
    keys = [(o.channels, o.ranks_per_channel, o.chips_per_rank, o.banks_per_rank) for o in orgs]
    results = {dims: {} for dims in keys}
    payloads = [
        (*dims, mode, n, seed, s, DEFAULT_MC_TILT, DEFAULT_STRATA)
        for dims in results
        for s, n in enumerate(shard_trials)
        if n > 0
    ]
    for (dims, s), est_dict in parallel.run_tasks(_shard_worker, payloads, jobs=jobs):
        results[dims][s] = est_dict
    estimates = {}
    for dims, done in results.items():
        estimate = None
        for s in sorted(done):
            shard_est = estimate_from_dict(done[s])
            estimate = shard_est if estimate is None else estimate.merge(shard_est)
        estimates[dims] = estimate
    return [estimates[dims] for dims in keys]


# -- unbiasedness oracle ---------------------------------------------------------------


def oracle_compare(
    org: "MemoryOrg | None" = None,
    trials: int = 60_000,
    seed: int = 0,
    threshold: "float | None" = None,
    tilt: "float | None" = None,
    strata: "int | None" = None,
    z: float = 4.0,
) -> dict:
    """Compare plain / IS / stratified estimates of the same quantities.

    Runs each estimator on an independent stream at the same budget and
    returns per-pair z-scores of the disagreement against the combined
    analytic standard errors.  Unbiased estimators disagree by more than
    ``z`` (default 4) combined standard deviations with probability
    ~6e-5 per comparison - the bound the oracle tests assert.
    """
    org = org or MemoryOrg()

    def sim(salt: int) -> EolCapacitySim:
        return EolCapacitySim(
            org, seed=np.random.default_rng(np.random.SeedSequence((seed, salt)))
        )

    target = None if threshold is None else ("tail", threshold)
    runs = {
        "plain": run_plain(sim(1), trials),
        "is": run_is(sim(2), trials, tilt=tilt),
        "strat": run_stratified(sim(3), trials, strata=strata, target=target),
    }
    report = {"trials": trials, "estimates": {}, "zscores": {}, "ok": True}
    for name, est in runs.items():
        entry = {"mean": est.mean, "se_mean": est.se_mean, "ess": est.ess}
        if threshold is not None:
            entry["tail"] = est.tail_probability(threshold)
            entry["se_tail"] = est.se_tail(threshold)
        report["estimates"][name] = entry
    for name in ("is", "strat"):
        a, b = report["estimates"]["plain"], report["estimates"][name]
        se = math.hypot(a["se_mean"], b["se_mean"])
        zs = {"mean": abs(a["mean"] - b["mean"]) / se if se > 0 else 0.0}
        if threshold is not None:
            se_t = math.hypot(a["se_tail"], b["se_tail"])
            zs["tail"] = abs(a["tail"] - b["tail"]) / se_t if se_t > 0 else 0.0
        report["zscores"][name] = zs
        if any(v > z for v in zs.values()):
            report["ok"] = False
    return report
