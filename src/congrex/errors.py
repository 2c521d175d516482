"""Exception types shared across the package."""


class CongrexError(Exception):
    """Base class for all errors raised by congrex."""


class InvalidInputError(CongrexError):
    """Malformed or out-of-contract input (bad tables, bad specs, ...)."""


class NotAGroupError(InvalidInputError):
    """A Cayley table failed the group axioms."""


class NotApplicableError(CongrexError):
    """The input is outside the scope of the characterization, such as a
    non-nilpotent group."""


class BudgetExceededError(CongrexError):
    """A resource guard tripped before the computation finished.

    Results obtained so far are discarded; callers may retry with a larger
    budget or a smaller arity bound.
    """


class WitnessCheckError(CongrexError):
    """An exhaustive verification of a constructed witness found a counterexample."""
