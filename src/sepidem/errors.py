"""Exception hierarchy.

Every failure mode of the kernel raises a subclass of SepidemError, so
callers (CLI, tests) can distinguish bad input from violated invariants.
Exceptions that report a counterexample carry it in ``witness``.
"""

from __future__ import annotations


class SepidemError(Exception):
    """Base class for all errors raised by this package."""


class BackendMismatch(SepidemError):
    """Operands live over different scalar backends or different algebras."""


class AlgebraConstructionError(SepidemError):
    pass


class AssociativityViolation(AlgebraConstructionError):
    def __init__(self, i, j, k):
        self.triple = (i, j, k)
        super().__init__(f"associativity fails on basis triple {(i, j, k)}")


class NotUnital(AlgebraConstructionError):
    pass


class NoBlockPresentation(SepidemError):
    """The operation needs a multi-matrix (block) presentation."""


class NotInvertible(SepidemError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element is not invertible: {element}")


class MapVerificationError(SepidemError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotMultiplicative(MapVerificationError):
    pass


class NotAntiMultiplicative(MapVerificationError):
    pass


class DerivationError(SepidemError):
    pass


class NoSolution(DerivationError):
    """An absorption equation has no solution; the idempotent is rejected."""

    def __init__(self, side, basis_label):
        self.side = side
        self.basis_label = basis_label
        super().__init__(
            f"absorption condition fails on the {side} side at basis element {basis_label}"
        )


class NonUniqueSolution(DerivationError):
    """Solution space is not a point; fullness should have prevented this."""


class OneSidedConditionFails(DerivationError):
    pass


class IntegralError(SepidemError):
    pass


class RefusedForMode(IntegralError):
    """The requested derivation is undefined for the certificate mode."""


class NotFaithful(IntegralError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"functional is not faithful; kernel witness {witness}")


class KMSViolation(IntegralError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"modular (KMS) law fails on basis pair {witness}")


class NotATrace(IntegralError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"functional is not tracial; witness pair {witness}")


class RelativeCommutationFails(IntegralError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"relative commutation cq = q sigma(c) fails at {witness}")


class CentralityViolation(SepidemError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"element is not central; witness {witness}")


class IntertwinerConditionFails(SepidemError):
    pass


class TransportMismatch(SepidemError):
    pass


class StarError(SepidemError):
    pass


class NoStarStructure(StarError):
    pass


class InequalityViolation(StarError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"positivity inequality fails on sample {witness}")


class GramNotPositiveDefinite(StarError):
    pass


class TwistError(SepidemError):
    pass


class ReconstructionMismatch(TwistError):
    pass


class NormalizationViolated(TwistError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"normalization constraint violated; got {value}")


class CrossBlockLeakage(SepidemError):
    def __init__(self, alpha, beta, witness):
        self.blocks = (alpha, beta)
        self.witness = witness
        super().__init__(
            f"coefficient matrix has a nonzero entry across blocks {alpha} and {beta} at {witness}"
        )


class IncompatibleComponents(SepidemError):
    pass


class DocumentError(SepidemError):
    """Malformed instance or certificate document."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
