"""Figure 8 cell workers shared by the engine and telemetry tests.

Module-level, so a process pool can pickle them by reference.
"""

import json
import os

from repro.faults.montecarlo import _eol_cell


def eol_digest(*payload):
    """``_eol_cell`` as a comparable, sortable value: the cell's channel
    count and the JSON of its tally."""
    channels, est = _eol_cell(*payload)
    return channels, json.dumps(est.to_dict())


def eol_or_exit(die, *payload):
    """``eol_digest``, except that the worker process dies when *die* is set."""
    if die:
        os._exit(3)
    return eol_digest(*payload)
