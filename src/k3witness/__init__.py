"""Pell-type witness search on rank-2 K3 Picard lattices.

Given lattice data (g, d, mu) and a vector (r, H, s), this package decides
whether a twisting divisor D exists that sends the vector to (r, H + r*D,
+-1), enumerates the determinant families where that happens, verifies every
witness identity exactly, and evaluates the induced degree-2 classes on the
Hilbert scheme of points.
"""

from .errors import (
    CongruenceFailure,
    DegenerateQuery,
    K3WitnessError,
    MixedLattices,
    NegativeDimension,
    NoValidMu,
    NotAUnit,
    NotInLattice,
    SquareDiscriminant,
    SquareInput,
    ThresholdUnreachable,
)
from .families import (
    FamilyQuery,
    MuOutcome,
    VerificationReport,
    Witness,
    enumerate_direct,
    enumerate_family,
    infinitude,
    member,
    membership,
    pell_problem,
    verify_witness,
    witness_chain,
)
from .hilbert import HilbertClass, bb_pair_with_H, bb_square, hilbert_class
from .lattice import (
    Divisor,
    LatticeConfig,
    det_check,
    divisor,
    dot_H,
    inner,
    make_lattice,
    unit_square_roots,
)
from .mukai import (
    MukaiVector,
    is_primitive,
    mukai_square_target,
    pairing,
    reflect,
    tensorize,
    type_vector,
)
from .pell import (
    FundamentalUnit,
    LinearCongruence,
    PellProblem,
    PellSolution,
    block_unit,
    class_representatives,
    default_x_threshold,
    fundamental_unit,
    orbit_step,
    push_negative,
    solve_bounded,
)

__version__ = "0.1.0"
