"""Error types, and the hypothesis-check row, shared across the package."""

from typing import NamedTuple


class HypothesisCheck(NamedTuple):
    """One stated condition, whether it held, and the numbers behind it: a
    row of a verdict's hypotheses and of a certificate's validation."""

    condition: str
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"condition": self.condition, "passed": self.passed,
                "detail": self.detail}


class HypothesisError(ValueError):
    """A stated hypothesis of an operation is violated.

    ``condition`` names the failed hypothesis so callers (and reports) can
    attribute the failure.
    """

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        self.detail = detail
        msg = f"hypothesis violated: {condition}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class AliasingError(ValueError):
    """Grid too small for the polynomial's (recentred) degree."""


class GridOverflowError(ValueError):
    """A grid mean, or an end of its enclosure, overflows float64."""


class SupportError(ValueError):
    """Coefficient support does not have the block structure an operation needs."""


class CollisionError(ValueError):
    """A generator produced colliding elements; carries the colliding index pairs."""

    def __init__(self, collisions):
        self.collisions = list(collisions)
        super().__init__(f"{len(self.collisions)} colliding value(s): "
                         f"{self.collisions[:5]}{'...' if len(self.collisions) > 5 else ''}")


class MemoryBudgetError(RuntimeError):
    """Requested sample grid exceeds the configured memory budget."""

    def __init__(self, needed_grid, needed_bytes: int, budget_bytes: int):
        self.needed_grid = tuple(int(n) for n in needed_grid)
        self.needed_bytes = int(needed_bytes)
        self.budget_bytes = int(budget_bytes)
        # within the budget, an axis is past the 5-smooth lengths (quadrature)
        hint = ("raise EXPSUMS_MEMORY_BUDGET or the memory_budget argument"
                if self.needed_bytes > self.budget_bytes else
                "an axis passes 4608000000000000000 samples, the most a grid may have")
        super().__init__(
            f"grid {self.needed_grid} needs {self.needed_bytes} bytes of samples, "
            f"budget is {self.budget_bytes} ({hint})")
