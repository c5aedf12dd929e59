"""Exception types shared by all cdu modules.

One class per way a failure is handled or per datum it carries; the
message names the input or hypothesis that failed.
"""


def quoted(value, width: int = 40) -> str:
    """repr(value), cut to width characters and its length when longer."""
    text = repr(value)
    return text if len(text) <= width else f"{text[:width]}... ({len(text)} characters)"


class CduError(Exception):
    """Base class for all library errors."""


class InvalidParams(CduError):
    """An input outside the domain of a field, builder, analysis or
    command-line option."""


class ParseError(CduError):
    """Syntax error in a polynomial or element expression, or a
    coefficient outside the field.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PreconditionFailed(CduError):
    """A builder hypothesis failed; .report holds the itemized validation,
    and the message names the failed items of the route with their details."""

    def __init__(self, report, failed):
        named = "; ".join(f"{item.name} ({item.detail})" for item in failed)
        super().__init__(f"precondition(s) failed: {named}")
        self.report = report


class CapExceeded(CduError):
    """Work beyond a command's declared budget."""


class FieldTooSmallWarning(UserWarning):
    """Search field may not contain all points the analysis is after."""
