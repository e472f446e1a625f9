"""repro: reproduction of "ECC Parity: A Technique for Efficient Memory
Error Resilience for Multi-Channel Memory Systems" (Jian & Kumar, SC'14).

Subpackages
-----------
``repro.gf``
    GF(2^m) arithmetic and Reed-Solomon coding.
``repro.ecc``
    Bit-true baseline ECC schemes (commercial chipkill, LOT-ECC,
    Multi-ECC, RAIM) and the Table II configuration catalog.
``repro.core``
    The paper's contribution: ECC parity construction/layout, bank health
    tracking, and the functional multi-channel machine.
``repro.dram``
    DDR3 timing/energy substrate (close-page, Most-Pending, TN-41-01).
``repro.cpu``
    LLC + trace-driven multicore timing plane with ECC-traffic rules.
``repro.workloads``
    Synthetic SPEC/PARSEC workload profiles and generators.
``repro.faults``
    Field fault rates, lifetime Monte Carlo, reliability analyses,
    fault injection.
``repro.experiments``
    One driver per paper table/figure (see DESIGN.md's index).
``repro.obs``
    Zero-dependency telemetry plane: JSONL event bus, causal spans,
    run manifests, and the ``repro.obs.summarize`` campaign reporter.
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "cpu",
    "dram",
    "ecc",
    "experiments",
    "faults",
    "gf",
    "obs",
    "util",
    "workloads",
]
