"""yangianpp: exact fixed-point representations of shifted affine Yangians.

Builds the raising/lowering action on 3D plane partitions (Hilbert-scheme
side) and on finite-type pyramid partitions (resolved-conifold side), and
verifies the shifted-Yangian relation suite with exact rational (or prime
field) arithmetic.
"""

from .errors import (
    CapExceeded,
    DenominatorNotCancelled,
    InconsistentShift,
    Resonance,
    RetrySpecialization,
    YangianppError,
)
from .exact import Kernel, LinForm, Params, random_params
from .partitions3d import Partition3D, box_weight, enumerate_plane_partitions
from .pyramid import ERC, PyramidPartition, Stone, build_erc, enumerate_pyramids
from .relations import OperatorSet, RelationReport, full_suite, run_suite
from .reps import (
    FixedPointBasis,
    Geometry,
    Representation,
    SparseOperator,
    detect_shift,
    h_rat,
)
from .shuffle import SymPoly, shuffle_mul

__all__ = [
    "CapExceeded",
    "DenominatorNotCancelled",
    "ERC",
    "FixedPointBasis",
    "Geometry",
    "InconsistentShift",
    "Kernel",
    "LinForm",
    "OperatorSet",
    "Params",
    "Partition3D",
    "PyramidPartition",
    "RelationReport",
    "Representation",
    "Resonance",
    "RetrySpecialization",
    "SparseOperator",
    "Stone",
    "SymPoly",
    "YangianppError",
    "box_weight",
    "build_erc",
    "detect_shift",
    "enumerate_plane_partitions",
    "enumerate_pyramids",
    "full_suite",
    "h_rat",
    "random_params",
    "run_suite",
    "shuffle_mul",
]

__version__ = "0.1.0"
