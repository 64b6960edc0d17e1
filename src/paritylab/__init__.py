"""Desk-scale laboratory for memory-bounded parity learning: an exact
GF(2) affine-subspace engine, branching-program simulation, constructive
subspace grouping and program reduction, reach-probability bounds,
streaming learners, and an inner-product bounded-storage cipher."""

from .gf2 import (
    AffineSubspace,
    BitVector,
    DimensionMismatch,
    EmptySubspaceError,
    VectorSubspace,
    contains,
    intersect_hyperplane,
    is_subset,
    orthogonal_space,
    parse_subspace,
    sample_point,
)
from .distributions import (
    SubspaceMixture,
    check_fourier_closeness,
    l1_distance,
    mixture_distribution,
    uniform_weights,
    walsh_transform,
)
from .partition import (
    SubspacePartition,
    build_partition,
    find_representative_subspace,
)
from .bp import (
    BranchingProgram,
    labelled_program,
    layer_accuracy,
    success_probability,
    validate_affine,
)
from .reduction import AffineReduction, reduce_to_affine, verify_reduction
from .lowerbound import reach_probability_bound, tradeoff_exponent, verify_reach_bound
from .learners import (
    Learner,
    TradeoffPoint,
    estimate_sample_complexity,
    exhaustive_learner,
    gaussian_learner,
    prefix_pivot_learner,
)
from .crypto import (
    Frame,
    SecretKey,
    decode_stream,
    decrypt_bit,
    encode_stream,
    encrypt_bit,
    keygen,
    run_attack,
    window_attacker,
)

__version__ = "0.1.0"
