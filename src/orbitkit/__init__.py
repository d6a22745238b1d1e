"""Coadjoint-orbit geometry of SO(6).

Classification of 2-forms in six dimensions, Weyl-group and moment-polytope
machinery, fibration projections between orbit types, and integrability
scans on the complex Heisenberg nilmanifold.
"""

from .errors import (
    BadIndex,
    EmptyIntersection,
    EmptySection,
    IncompatiblePattern,
    InvalidRotation,
    NonConvergence,
    NormViolation,
    OrbitkitError,
    ParseError,
    WeightNotTraceFree,
    WrongClass,
)
from .forms import (
    STABILIZER_DIM,
    Classification,
    EigenSplit,
    InvariantPlane,
    OrbitClass,
    TwoForm,
    canonical_triple,
    cartan_to_spin_weight,
    classify,
    classify_full,
    conjugate,
    eigen_split,
    spin_weight_to_cartan,
    torus_rotation,
    validate_rotation,
)
from .polytopes import (
    Facet,
    Polytope,
    clip,
    contains,
    hull,
    intersect,
    polytope_to_json,
    section,
    to_off,
)
from .spin import SpinCoverResult, spin_cover_check
from . import iwasawa, klein, moment, weyl

__version__ = "0.1.0"
