"""Subsets of an ordered ground set as int bitmasks."""

from __future__ import annotations

from typing import Iterator


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
