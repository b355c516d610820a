"""Exception types raised across the library.

All element data carried by exceptions is 0-based masks/indices; the CLI
renders 1-based labels for users.
"""

from __future__ import annotations

from .bitset import bits_tuple


class MatroidError(Exception):
    """Base class for validation, construction, and budget errors."""


class OutOfRange(MatroidError):
    pass


class BadParams(MatroidError):
    pass


class TooLarge(MatroidError):
    """A guarded enumeration or materialization exceeded its budget."""

    def __init__(self, budget_name: str, detail: str = ""):
        self.budget_name = budget_name
        super().__init__(f"budget {budget_name!r} exceeded" + (f": {detail}" if detail else ""))


class ContainmentViolation(MatroidError):
    def __init__(self, small: int, big: int):
        self.small = small
        self.big = big
        super().__init__(
            f"circuit {bits_tuple(small)} is contained in circuit {bits_tuple(big)}"
        )


class AxiomViolation(MatroidError):
    """Circuit elimination fails for (c1, c2) at common element x."""

    def __init__(self, c1: int, c2: int, x: int):
        self.c1 = c1
        self.c2 = c2
        self.x = x
        super().__init__(
            f"no circuit inside ({bits_tuple(c1)} | {bits_tuple(c2)}) minus element {x}"
        )


class RankMismatch(MatroidError):
    def __init__(self, declared: int, computed: int):
        self.declared = declared
        self.computed = computed
        super().__init__(f"declared rank {declared} but computed rank {computed}")


class HyperplaneTooSmall(MatroidError):
    def __init__(self, hyperplane: int, n: int):
        self.hyperplane = hyperplane
        super().__init__(f"hyperplane {bits_tuple(hyperplane)} has fewer than {n} elements")


class IntersectionTooLarge(MatroidError):
    def __init__(self, l1: int, l2: int, limit: int):
        self.l1 = l1
        self.l2 = l2
        super().__init__(
            f"hyperplanes {bits_tuple(l1)} and {bits_tuple(l2)} share more than {limit} elements"
        )


class DegenerateGround(MatroidError):
    pass


class TripleIntersection(MatroidError):
    def __init__(self, i: int, j: int, r: int, element: int):
        self.indices = (i, j, r)
        self.element = element
        super().__init__(f"element {element} lies in members {i}, {j} and {r}")


class LevelTooSmall(MatroidError):
    pass


class RankDeficient(MatroidError):
    pass


class TooFewLines(MatroidError):
    pass


class EnumerationBudgetExceeded(MatroidError):
    def __init__(self, budget_name: str, value: int, limit: int):
        self.budget_name = budget_name
        self.value = value
        self.limit = limit
        super().__init__(f"budget {budget_name!r}: requested {value} exceeds limit {limit}")


class RangeUnsupported(MatroidError):
    pass


class InvariantViolated(MatroidError):
    """An internal invariant failed: a bug in this library, not bad input."""
