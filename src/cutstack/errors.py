"""Error types shared across the workbench.

Partial definedness is a feature here, not a bug: every evaluation has a
budget (stage depth, window size, horizon) and raises one of these instead
of silently failing.  Callers that want "error as data" catch them
and record the payload.
"""


class CutstackError(Exception):
    """Base class for all workbench errors."""


class DslError(CutstackError):
    """Syntax or arity error in the stacking DSL."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column else "") + ")"
        super().__init__(message + loc)


class SpecInvalid(CutstackError):
    """A stacking spec violates a structural invariant (e.g. divergent mass)."""


class NeedMoreDepth(CutstackError):
    """A point move could not be resolved within the stage budget.

    Corresponds to the measure-zero orbits removed from carriers: the point
    sits at a stack top/bottom through every stage up to the budget.
    """

    def __init__(self, message, budget=None):
        self.budget = budget
        super().__init__(message)


class ExhaustedDigits(CutstackError):
    """The digit stream cannot produce a digit at the requested stage."""


class ExhaustedRules(CutstackError):
    """A finite (tail-less) spec has no rule at the requested stage."""


class BudgetExhausted(CutstackError):
    """An orbit search (return time, height, depth) ran out of budget."""

    def __init__(self, message, budget=None):
        self.budget = budget
        super().__init__(message)


class WindowExhausted(CutstackError):
    """The shift count n(x)/m(y) was not found within the frame window."""

    def __init__(self, message, window=None):
        self.window = window
        super().__init__(message)


class WindowEdge(CutstackError):
    """A machine item or slot lies past the frame window."""

    def __init__(self, message, window=None):
        self.window = window
        super().__init__(message)


class HorizonExhausted(CutstackError):
    """No stopping time found within the horizon."""

    def __init__(self, message, horizon=None, running_min=None):
        self.horizon = horizon
        self.running_min = running_min
        super().__init__(message)


class InadmissiblePair(CutstackError):
    """A system pair fails the preconditions of the requested matching
    (cut counts differ, so the induced maps are not one odometer, or base
    measures are unequal for an even match)."""


class MarginViolation(CutstackError):
    """A pile exceeds its pit in a non-even plan at every inducing depth:
    the margin falls without bound."""
