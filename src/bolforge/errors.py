"""Exception types shared across the package."""

from __future__ import annotations


class LoopError(Exception):
    """Base class for all bolforge errors."""


class MalformedInput(LoopError):
    """Input text is not a well-formed table file (bad dimensions, bad cells)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotLatinSquare(LoopError):
    """A row or column repeats a symbol, so translations are not bijections."""

    def __init__(self, axis: str, index: int):
        self.axis = axis
        self.index = index
        super().__init__(f"{axis} {index} is not a permutation of 0..n-1")


class NoIdentity(LoopError):
    """The table has no two-sided neutral element."""


class IndexOutOfRange(LoopError, IndexError):
    """An element index does not belong to the table's carrier 0..n-1."""


class InvalidSearchSpec(LoopError, ValueError):
    """A search setting is unknown or out of range (order, class, budgets, jobs)."""


class NoTwoSidedInverse(LoopError):
    """Left and right inverses of an element disagree.

    Carries both one-sided inverses so callers can report the mismatch.
    """

    def __init__(self, element: int, left: int, right: int):
        self.element = element
        self.left = left
        self.right = right
        super().__init__(
            f"element {element} has left inverse {left} but right inverse {right}"
        )


class MultipleSquareRoots(LoopError):
    """More than one element squares to the requested value."""

    def __init__(self, value: int, roots: tuple[int, ...]):
        self.value = value
        self.roots = roots
        super().__init__(f"element {value} has square roots {list(roots)}")


class NotASubloop(LoopError):
    """The given subset is not closed under product and divisions."""


class NotAGroup(LoopError):
    """The table is not associative where a group was required."""


class EvenOrder(LoopError):
    """An odd-order structure was required."""


class PostConstructionCheckFailed(LoopError):
    """A constructed table failed its own validity re-check (bug trap)."""


class ManifestNotFound(LoopError):
    """A corpus manifest file does not exist."""


class OrderTooLargeForExact(LoopError):
    """Exact canonical labeling is limited to small orders."""


class SearchSelfCheckError(LoopError):
    """Search output failed independent re-verification (bug trap)."""
