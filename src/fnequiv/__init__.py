"""Weight-space symmetries of feed-forward networks.

Subpackages by concern:

- ``nncore``: architectures, parameters, forward/gradient evaluation
- ``transforms``: function-preserving parameter transformations
- ``canonical``: canonical representatives and symmetry profiles
- ``equivalence``: equivalence decision procedures
- ``bounds``: covering-number and metric-entropy calculators
- ``empirical``: brute-force covering/packing oracles
- ``basin``: initialization, training, and basin-counting experiments
- ``cli``: the ``fnequiv`` command-line tool
"""

from .nncore import (
    Activation,
    Architecture,
    Network,
    NetworkParams,
    RELU,
    SIGMOID,
    TANH,
    IDENTITY,
    activation_from_tag,
    forward,
    forward_batch,
    gradient,
    hidden_range_bound,
    leaky_relu,
    load_network,
    save_network,
)
from .transforms import (
    NeuronSymmetry,
    apply_permutation,
    apply_scaling,
    apply_sign_flip,
    compose,
    inverse,
)
from .canonical import (
    CanonicalForm,
    SymmetryProfile,
    canonicalize,
    effective_volume,
    symmetry_profile,
)
from .equivalence import EquivalenceVerdict, decide_equivalence, sampled_sup_distance
from .bounds import (
    BoundConfig,
    EntropyComparison,
    deep_covering_bound,
    entropy_comparison,
    shallow_covering_bound,
    stirling_bracket,
    volume_covering_bound,
)
from .empirical import (
    MetricSpaceSample,
    exact_covering_number,
    exact_packing_number,
    function_class_sample,
    greedy_covering_estimate,
    greedy_packing_estimate,
    grid_sample,
)
from .basin import (
    AmplificationCheck,
    BasinSummary,
    InitScheme,
    OptimizerConfig,
    TrainRun,
    amplification_check,
    basin_experiment,
    initialize,
    orbit_membership,
    train,
)

__version__ = "0.1.0"
