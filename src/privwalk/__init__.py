"""Random-walk sampling and estimation on social graphs with private nodes."""

from .estimators import (
    EstimateReport,
    NoCollisionError,
    build_report,
    default_gap_threshold,
)
from .experiment import (
    ESTIMATOR_NAMES,
    ExperimentConfig,
    NrmseRow,
    load_config,
    query_census,
    run_experiment,
)
from .graph import (
    GraphError,
    LabeledGraph,
    PublicClusterView,
    assign_labels_bernoulli,
    build_graph,
    largest_public_cluster,
)
from .ingest import (
    IngestError,
    load_edge_list,
    load_labels,
    load_sample_records,
    save_labels,
)
from .theory import (
    THEORY_COLUMNS,
    ConvergenceValues,
    ExpectedErrors,
    convergence_values,
    expected_error_inequalities,
    public_count_moments,
    expected_errors,
    expected_query_ratios,
    theory_report_rows,
)
from .walk import (
    AccessModel,
    PubdegMode,
    QueryLedger,
    SelectionCounters,
    StuckWalkError,
    WalkRecord,
    run_walk,
    stationary_distribution,
)

__version__ = "0.1.0"
