"""JSON helpers: reports encode NaN/infinity as the strings "nan"/"inf"."""

from __future__ import annotations

import enum
import math
from dataclasses import fields

import numpy as np

__all__ = ["json_ready", "report_dict"]


def json_ready(value):
    """Recursively convert a report value into plain JSON-encodable types."""
    if isinstance(value, dict):
        return {str(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_ready(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(value, enum.Enum):
        return value.value
    return value


def report_dict(report, **keys) -> dict:
    """A dataclass report as JSON, its fields in order, each under its own name or its paper-notation key."""
    return json_ready({keys.get(f.name, f.name): getattr(report, f.name) for f in fields(report)})
