"""Exception types shared across the package."""

import math


class OrthoglideError(Exception):
    """Base class for every error raised by this package."""


class ParseError(OrthoglideError, ValueError):
    """A model config could not be parsed."""


class ValidationError(OrthoglideError, ValueError):
    """A parsed model violates a structural or physical constraint."""


class OutOfWorkspace(OrthoglideError):
    """The requested platform point is not reachable by every chain.

    Attributes:
        chain: 1-based index of the chain whose inverse geometry failed.
        arcsine: which arcsine left [-1, 1]; 1 is the elbow angle equation,
            2 is the shoulder angle equation.
        argument: the offending arcsine argument.
    """

    def __init__(self, chain, arcsine, argument):
        self.chain = int(chain)
        self.arcsine = int(arcsine)
        self.argument = float(argument)
        super().__init__(
            "chain %d: arcsine %d argument %.17g outside [-1, 1]"
            % (self.chain, self.arcsine, self.argument)
        )


class ChainSingular(OrthoglideError):
    """A chain Jacobian is singular or too ill-conditioned to invert."""

    def __init__(self, chain, detail):
        self.chain = int(chain)
        super().__init__("chain %d: singular Jacobian (%s)" % (self.chain, detail))


class NumericalError(OrthoglideError):
    """A numerical sanity guard tripped (symmetry defect, conditioning)."""


def require_finite(name, values):
    """Raise NumericalError naming values, a list of floats, if one is not finite."""
    if not all(map(math.isfinite, values)):
        raise NumericalError("non-finite %s %r" % (name, values))
