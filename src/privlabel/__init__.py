"""Record-level differentially private labeling via reverse k-NN vote sums."""

from .core import (
    ConnectionMap,
    MechanismReport,
    PrivacyModel,
    PrivacyParams,
    QuerySet,
    RecordSet,
    count_gap,
    label_vector,
    record_votes,
    vote_counts,
)
from .geometry import (
    ConnectionObjective,
    brute_force_best_connection,
    objective_value,
    propagate_labels,
    reverse_knn_connect,
    select_queries_cluster,
    select_queries_uncertainty,
)
from .central import (
    central_laplace_mechanism,
    laplace_accuracy_bound,
    sample_laplace,
)
from .local import (
    MECHANISMS,
    CollisionParams,
    GseParams,
    collision_accuracy_bound,
    collision_indicator_estimates,
    gse_encode_batch,
    gse_estimate,
    local_laplace_accuracy_bound,
    rr_accuracy_bound,
    rr_estimate,
    verify_local_dp,
)
from .shuffle import (
    amplify_forward,
    amplify_invert,
    multi_message_pipeline,
    single_message_params,
)
from .simulate import Partition, PartitionScheme, ProxyStudent, run_algorithm1

__version__ = "0.1.0"
