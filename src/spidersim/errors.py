"""Exception hierarchy shared by all spidersim modules.

Every error carries a stable ``code`` string so CLI output and tests can
match on codes instead of message text.
"""

from __future__ import annotations


class SpiderSimError(Exception):
    """Base class for all domain errors raised by this package. An error's
    ``code`` is its class name."""

    code = "SpiderSimError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code


# --- scenario parsing / validation ---------------------------------------

class MalformedDocument(SpiderSimError):
    pass


class MissingSection(SpiderSimError):
    def __init__(self, name: str):
        super().__init__(f"missing required section: {name}")
        self.name = name


class UnknownField(SpiderSimError):
    def __init__(self, path: str):
        super().__init__(f"unknown field: {path}")
        self.path = path


class InvariantViolation(SpiderSimError):
    def __init__(self, path: str, detail: str):
        super().__init__(f"{path}: {detail}")
        self.path = path
        self.detail = detail


# --- topology building -----------------------------------------------------

class EmptyRecipe(SpiderSimError):
    pass


class InsufficientGateways(SpiderSimError):
    pass


# --- capability registry ----------------------------------------------------

class DuplicateId(SpiderSimError):
    pass


class UnknownPredicate(SpiderSimError):
    pass


class UnknownEffect(SpiderSimError):
    pass


class KindEffectMismatch(SpiderSimError):
    pass


class UnsupportedInterfaceVersion(SpiderSimError):
    pass


class UnboundSlot(SpiderSimError):
    pass


class PreconditionViolated(SpiderSimError):
    pass


class UnknownCapability(SpiderSimError):
    pass


class KindMismatch(SpiderSimError):
    pass


class DuplicatePlacement(SpiderSimError):
    pass


class UnknownNode(SpiderSimError):
    pass


# --- attack graph ------------------------------------------------------------

class UnknownEntryNode(SpiderSimError):
    pass


class TargetSelectorEmpty(SpiderSimError):
    pass


class InvalidQueryBound(SpiderSimError):
    pass


class UnknownPathNode(SpiderSimError):
    pass


# --- simulation engine --------------------------------------------------------

class InvalidScenario(SpiderSimError):
    pass


class RoundLimitExceeded(SpiderSimError):
    pass


# --- generation pipeline -------------------------------------------------------

class EmptyRequirement(SpiderSimError):
    pass


class MissingConsumedSlot(SpiderSimError):
    pass


class NoHintsAvailable(SpiderSimError):
    pass


class GenerationFailed(SpiderSimError):
    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
