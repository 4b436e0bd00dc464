"""The number rules of the JSON grammar, shared by every reader of a config.

Each reader raises its own error with its own message; these decide what
counts as a number there.
"""

from __future__ import annotations

import sys


def is_finite_number(value) -> bool:
    """A finite JSON number.

    Not a bool, a string, an integer beyond the float range, or the NaN and
    Infinity that json.loads reads.
    """
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def is_integer(value) -> bool:
    """A JSON integer: an int or an integral float such as 5e4 or 3.0, and not a bool."""
    return type(value) is int or (type(value) is float and value.is_integer())
