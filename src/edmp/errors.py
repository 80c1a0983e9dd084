"""Exception types shared across the package."""


class EdmpError(Exception):
    """Base class for all library-specific failures."""


class NumericalFailure(EdmpError):
    """A numerical routine did not converge or an internal identity broke."""


class NotAnEdm(EdmpError):
    """The input matrix is not a Euclidean distance matrix."""


class NotUnitSpherical(EdmpError):
    """The operation requires a unit spherical EDM."""


class DegenerateDenominator(EdmpError):
    """A closed-form denominator vanished; the quantity is unbounded."""


class PreconditionViolated(EdmpError):
    """The structural premise of a closed-form result does not hold."""


class OutsideTleq(EdmpError):
    """The requested perturbation lies outside the admissible radius-one set."""


class PoleAt(EdmpError):
    """The evaluation point coincides with an analytic pole."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"evaluation point t={t} hits a pole")


class Infeasible(EdmpError):
    """The feasibility search exhausted its bracket without success."""


class InfeasibleSpec(EdmpError):
    """The requested instance structure cannot be realized."""


class ParseError(EdmpError):
    """A matrix file could not be parsed."""
