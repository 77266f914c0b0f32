"""Exception hierarchy shared by all spidersim modules.

Every error carries a stable ``code`` string so CLI output and tests can
match on codes instead of message text.
"""

from __future__ import annotations


class SpiderSimError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "SpiderSimError"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code


# --- scenario parsing / validation ---------------------------------------

class MalformedDocument(SpiderSimError):
    code = "MalformedDocument"


class MissingSection(SpiderSimError):
    code = "MissingSection"

    def __init__(self, name: str):
        super().__init__(f"missing required section: {name}")
        self.name = name


class UnknownField(SpiderSimError):
    code = "UnknownField"

    def __init__(self, path: str):
        super().__init__(f"unknown field: {path}")
        self.path = path


class InvariantViolation(SpiderSimError):
    code = "InvariantViolation"

    def __init__(self, path: str, detail: str):
        super().__init__(f"{path}: {detail}")
        self.path = path
        self.detail = detail


# --- topology building -----------------------------------------------------

class EmptyRecipe(SpiderSimError):
    code = "EmptyRecipe"


class InsufficientGateways(SpiderSimError):
    code = "InsufficientGateways"


# --- capability registry ----------------------------------------------------

class DuplicateId(SpiderSimError):
    code = "DuplicateId"


class UnknownPredicate(SpiderSimError):
    code = "UnknownPredicate"


class UnknownEffect(SpiderSimError):
    code = "UnknownEffect"


class KindEffectMismatch(SpiderSimError):
    code = "KindEffectMismatch"


class UnsupportedInterfaceVersion(SpiderSimError):
    code = "UnsupportedInterfaceVersion"


class UnboundSlot(SpiderSimError):
    code = "UnboundSlot"


class PreconditionViolated(SpiderSimError):
    code = "PreconditionViolated"


class UnknownCapability(SpiderSimError):
    code = "UnknownCapability"


class KindMismatch(SpiderSimError):
    code = "KindMismatch"


class DuplicatePlacement(SpiderSimError):
    code = "DuplicatePlacement"


class UnknownNode(SpiderSimError):
    code = "UnknownNode"


# --- attack graph ------------------------------------------------------------

class UnknownEntryNode(SpiderSimError):
    code = "UnknownEntryNode"


class TargetSelectorEmpty(SpiderSimError):
    code = "TargetSelectorEmpty"


class InvalidQueryBound(SpiderSimError):
    code = "InvalidQueryBound"


class NonContiguousPath(SpiderSimError):
    code = "NonContiguousPath"


class UnknownPathNode(SpiderSimError):
    code = "UnknownPathNode"


# --- simulation engine --------------------------------------------------------

class InvalidScenario(SpiderSimError):
    code = "InvalidScenario"


class InvalidStrategy(SpiderSimError):
    code = "InvalidStrategy"


class RoundLimitExceeded(SpiderSimError):
    code = "RoundLimitExceeded"


# --- generation pipeline -------------------------------------------------------

class EmptyRequirement(SpiderSimError):
    code = "EmptyRequirement"


class MissingConsumedSlot(SpiderSimError):
    code = "MissingConsumedSlot"


class NoHintsAvailable(SpiderSimError):
    code = "NoHintsAvailable"


class GenerationFailed(SpiderSimError):
    code = "GenerationFailed"

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
