"""Exception types shared across the package.

DomainError marks violated preconditions or contract misuse (CLI exit 1);
its subclass BudgetError marks an input whose work exceeds a resource
budget. ParseError marks malformed text input (CLI exit 2).
"""


class DomainError(ValueError):
    """An operation was called outside its documented domain."""


class BudgetError(DomainError):
    """The work an input asks for exceeds a resource budget."""


class ParseError(ValueError):
    """Malformed text input. Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
