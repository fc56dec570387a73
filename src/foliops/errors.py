"""Exception hierarchy shared by all foliops modules."""


class FoliopsError(Exception):
    """Base class for all library errors."""


class ParseError(FoliopsError):
    """Malformed expression or field syntax."""


class DimensionMismatch(FoliopsError):
    """Operands declared over incompatible dimensions."""


class EvalError(FoliopsError):
    """Expression evaluation produced a non-finite value."""


class DomainEscape(FoliopsError):
    """A flow trajectory left the foliation's integration domain."""


class StepLimit(FoliopsError):
    """The adaptive integrator exceeded its step budget."""


class BaseMismatch(FoliopsError):
    """Bisubmersions or kernels over different base foliations."""


class SideMismatch(FoliopsError):
    """Kernel fibred over the wrong submersion for the requested operation."""


class NotABisection(FoliopsError):
    """Sampled injectivity check failed, or Newton inversion diverged."""


class EmptyTranslate(FoliopsError):
    """Translated bisubmersion has empty parameter domain."""


class BracketNotZero(FoliopsError):
    """Generators required to commute have a nonvanishing Lie bracket."""


class SupportViolation(FoliopsError):
    """Coefficient support not contained in the bisection's base image."""


class QuadratureFailure(FoliopsError):
    """Quadrature produced non-finite values."""


class NotTransverse(FoliopsError):
    """Kernel cannot be re-fibred over the opposite submersion."""


class HostMismatch(FoliopsError):
    """Atom hosted on a bisubmersion other than the morphism's source."""


class InsufficientLeafSampling(FoliopsError):
    """A fibre point is farther than the leaf mesh from every sample."""


class ConfigError(FoliopsError, ValueError):
    """Workspace configuration or a numerical setting is malformed, or a
    reference is unresolved."""
