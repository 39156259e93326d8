"""Spectral graph filters, ConvNets, and sampling operators with certified
transferability bounds."""

from .convnet import (
    Activation,
    ConvNetGraphSetting,
    ConvNetSpec,
    LayerSpec,
    convnet_transfer_bound,
    forward_continuous,
    forward_graph,
    hypothesis_errors,
    load_convnet_spec,
    pool,
    spectral_decay_check,
)
from .filters import (
    Filter,
    apply_chebyshev,
    apply_exact,
    apply_rational,
    make_filter,
    max_difference_quotient,
    sup_norm_on_spectrum,
)
from .graphs import (
    EigenDecomposition,
    InnerProduct,
    OperatorWithInnerProduct,
    WeightedGraph,
    adjoint_wrt,
    build_laplacian,
    eigendecompose,
    grid_graph,
    normality_defect,
    path_graph,
    random_geometric_graph,
)
from .graph_io import emit_graph, parse_graph, parse_mesh_off, synthetic_graph
from .montecarlo import (
    MCBoundConstants,
    TrialConfig,
    bound_constants,
    failure_rate,
    mc_trial,
    nonasymptotic_filter_bound,
    run_trials,
    slope_fit,
)
from .experiments import ExperimentConfig, run_experiment
from .reports import ReportBundle, emit_reports
from .sampling import (
    CoarseningMap,
    PerturbationSpec,
    SampleSet,
    SamplingPair,
    coarsen_matching,
    coarsened_laplacian,
    evaluation_operator,
    gram,
    random_sampled_laplacian,
)
from .spaces import (
    BandlimitedKernel,
    CircleSpace,
    GraphSpace,
    bandlimited_kernel,
)
from .transfer import (
    FilterConstants,
    TransferReport,
    TransferSetting,
    bound_fourier_mode,
    bound_pointwise,
    bound_worstcase,
    coarsening_setting,
    evaluate_transfer,
    filter_constants,
    perturbation_setting,
    sampling_setting,
    transfer_errors,
    two_graph_error,
)

__version__ = "0.1.0"
