"""Resource budgets for exact enumeration and dense linear algebra.

Every operation that could blow up (dense matrices, type enumeration, subset
pair enumeration) checks a budget first and raises ``BudgetExceeded`` with the
offending dimension spelled out, instead of thrashing memory.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields


def _as_index(value, what: str) -> int:
    """``value`` as a Python int: an int or numpy integer, but not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def parse_int(text: str, what: str) -> int:
    """``text`` read by ``int``, or a ``ValueError`` naming ``what``.

    A signed string of decimal digits that ``int`` still refuses has more
    digits than Python converts (``sys.get_int_max_str_digits()``); it is
    refused by its digit count and first digits, not echoed in full.
    """
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isdecimal():
            raise ValueError(
                f"{what} is too long: {len(digits)} digits, starting {digits[:10]}..."
            ) from None
        raise ValueError(f"{what} must be int, got {text!r}") from None


def format_count(count: int) -> str:
    """``count`` in decimal up to 30 digits, beyond that its power of ten.

    Python refuses to write an int of more than 4300 digits in decimal, and a
    count that long is read by its order of magnitude anyway.
    """
    return str(count) if count < 10**30 else f"about 10^{math.log10(count):.1f}"


class BudgetExceeded(RuntimeError):
    """Raised when a computation would exceed a configured budget."""


@dataclass(frozen=True)
class Budgets:
    """Safe defaults for a laptop-scale run; override through the runner config."""

    max_dense_dim: int = 4096
    max_type_count: int = 100_000
    max_subset_pairs: int = 1_000_000

    def __post_init__(self):
        for field in fields(self):
            # an int or numpy integer, stored as an int; a bool or float is refused
            limit = _as_index(getattr(self, field.name), field.name)
            object.__setattr__(self, field.name, limit)
            if limit < 1:
                raise ValueError(f"{field.name} must be >= 1, got {limit}")

    def check_dense_dim(self, dim: int, what: str) -> None:
        if dim > self.max_dense_dim:
            raise BudgetExceeded(
                f"{what}: dense dimension {format_count(dim)} exceeds budget "
                f"{format_count(self.max_dense_dim)}"
            )

    def check_type_count(self, count: int, what: str) -> None:
        if count > self.max_type_count:
            raise BudgetExceeded(
                f"{what}: {format_count(count)} types exceed enumeration budget "
                f"{format_count(self.max_type_count)}"
            )

    def check_subset_pairs(self, count: int, what: str) -> None:
        if count > self.max_subset_pairs:
            raise BudgetExceeded(
                f"{what}: {format_count(count)} subset pairs exceed budget "
                f"{format_count(self.max_subset_pairs)}"
            )


DEFAULT_BUDGETS = Budgets()
