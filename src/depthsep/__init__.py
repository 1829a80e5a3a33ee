"""depthsep: a verification lab for a hard-parity construction.

Builds the Lipschitz hard target and its unit-ball support distribution,
constructs depth-3 networks that compute it exactly or to certified
accuracy, compiles networks to threshold form, runs the randomized
worst-to-average input reduction, and checks the combinatorial bounds
behind it in exact arithmetic.
"""

from .bits import as_bits, ip_mod2, round_half_away, xor_bits
from .depth3 import (
    Approx1DSpec,
    build_exact_relu,
    build_generic,
    reference_g1,
    reference_g2,
    relu_1d_approximator,
)
from .instance import (
    InstanceSpec,
    Packing,
    PackingInfeasible,
    build_instance,
    build_packing,
    eval_f,
    eval_f_batch,
    min_intercomponent_distance,
    sample_a4d,
)
from .networks import (
    RELU,
    SIGMOID,
    THRESHOLD,
    Activation,
    DenseNetwork,
    ThresholdCircuit,
    absorb_input_map,
    average_ensemble,
    network_from_json,
    network_to_json,
)
from .reduction import (
    CountDistribution,
    ReductionConfig,
    RandomizationRecord,
    build_averaged_network,
    count_signature,
    exact_count_distribution,
    exact_l2_norm_squared,
    hoeffding_block_count,
    mgf_bound_report,
    multinomial_square_ratio_report,
)
from .threshold import (
    BudgetExceeded,
    SegmentPlan,
    compile_network,
    compile_scalar,
    threshold_1d_approximator,
    to_circuit,
)
from .training import TrainConfig, estimate_population_loss, train_depth2

__version__ = "0.1.0"
