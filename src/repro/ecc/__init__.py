"""Bit-true memory ECC schemes and the paper's evaluated configurations.

All schemes implement :class:`~repro.ecc.base.ECCScheme`: a geometry/cost
descriptor plus a functional codec over NumPy byte arrays.  The catalog
module reproduces Table II of the paper.
"""

from repro.ecc.base import CorrectResult, DetectResult, ECCScheme, EccTraffic
from repro.ecc.checksum import ones_complement_checksum16, xor_checksum8
from repro.ecc.chipkill import Chipkill18, Chipkill36
from repro.ecc.double_chipkill import DoubleChipkill40
from repro.ecc.lot_ecc import LotEcc5, LotEcc9
from repro.ecc.lot_ecc_rs import LotEcc5RS
from repro.ecc.multi_ecc import MultiEcc
from repro.ecc.raim import Raim18EP, Raim45
from repro.ecc.catalog import (
    DUAL_EQUIVALENT,
    QUAD_EQUIVALENT,
    SCHEMES,
    SYSTEM_CLASSES,
    SystemConfig,
    pin_count,
    total_physical_gbits,
)

__all__ = [
    "CorrectResult",
    "DetectResult",
    "ECCScheme",
    "EccTraffic",
    "ones_complement_checksum16",
    "xor_checksum8",
    "Chipkill18",
    "Chipkill36",
    "DoubleChipkill40",
    "LotEcc5",
    "LotEcc5RS",
    "LotEcc9",
    "MultiEcc",
    "Raim18EP",
    "Raim45",
    "DUAL_EQUIVALENT",
    "QUAD_EQUIVALENT",
    "SCHEMES",
    "SYSTEM_CLASSES",
    "SystemConfig",
    "pin_count",
    "rebuild",
    "rebuildable",
    "total_physical_gbits",
]


def rebuild(cls_name: str) -> ECCScheme:
    """A fresh scheme of this package's class *cls_name*, default-constructed.

    Campaign workers rebuild their scheme this way from a picklable class
    name, so a task's payload stays primitives only.
    """
    return globals()[cls_name]()


def rebuildable(scheme: ECCScheme) -> bool:
    """True when :func:`rebuild` of *scheme*'s class name gives its class
    back; a subclass defined elsewhere must stay in-process."""
    return globals().get(type(scheme).__name__) is type(scheme)
