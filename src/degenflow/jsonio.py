"""The one JSON writer behind every artifact the package writes.

Output is strict JSON: non-finite floats become null, numpy scalars become
Python numbers and bools, and keys are sorted with a two-space indent, so
equal payloads give byte-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _clean(obj):
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path, payload):
    """Write payload to path as strict JSON with a trailing newline.

    The text is built before the file is opened, so a payload that cannot
    be serialized leaves no partial file behind."""
    text = json.dumps(_clean(payload), indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
