"""Exception types shared across the package."""


class OrbitkitError(Exception):
    """Base class for all orbitkit errors."""


class NonConvergence(OrbitkitError):
    """The symmetric eigensolver backing an eigen-split failed."""


class InvalidRotation(OrbitkitError):
    """A matrix claimed to be a rotation fails orthogonality or det = +1."""


class WeightNotTraceFree(OrbitkitError):
    """A torus weight quadruple does not sum to zero."""


class BadIndex(OrbitkitError):
    """Weight index outside {1, 2, 3}."""


class EmptyIntersection(OrbitkitError):
    """Halfspace systems of two polytopes have no common point."""


class EmptySection(OrbitkitError):
    """A plane misses the polytope entirely."""


class IncompatiblePattern(OrbitkitError):
    """Eigenvalue pattern of the target does not coarsen the source's."""


class WrongClass(OrbitkitError):
    """Input form does not belong to the orbit class the operation expects."""


class NormViolation(OrbitkitError):
    """Parameters violate a required unit-norm constraint."""


class IncompatiblePair(OrbitkitError):
    """The product-structure plane is not invariant under the chosen complex structure."""


class ParseError(OrbitkitError):
    """Malformed input file or value."""


class UnknownSuite(OrbitkitError):
    """Verification suite name not recognised."""
