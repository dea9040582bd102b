"""Density-aware transductive label propagation.

Given feature vectors with sparse labels, this package builds a
nearest-neighbor affinity graph whose edges are reweighted by the kernel
density observed along the segment between the two endpoints, diffuses the
high-confidence label mass over the normalized graph, and mixes the result
back with the retained low-confidence predictions. Edges that cross
low-density territory between clusters are damped, so label mass follows
cluster shape instead of raw proximity; sending the kernel bandwidth to
infinity removes the damping and recovers classical label propagation.
"""

__version__ = "0.1.0"

from .core import (
    AffinityMatrix,
    ConfigError,
    DataError,
    FeatureMatrix,
    LabelAssignment,
    NumericalError,
    PmlpConfig,
    PmlpError,
    SoftLabelMatrix,
    default_neighbor_count,
    soft_labels_from_assignments,
    validate_config,
)
from .density import (
    batch_normalized_density,
    batch_path_density_info,
    density_ratio,
)
from .graph import (
    build_affinity,
    knn_edges,
    normalize_symmetric,
)
from .propagate import (
    PropagationResult,
    ThresholdSchedulerState,
    mix_final,
    propagate_closed_form,
    run_classical_lpa,
    run_pmlp,
    split_by_confidence,
    threshold_increment,
    update_threshold,
)
from .synthlab import (
    ComparisonTrial,
    DensityRatioReport,
    SeparationReport,
    SyntheticDataset,
    assignments_from_dataset,
    compare_pmlp_vs_lpa,
    density_ratio_sweep,
    gen_gaussian_blobs,
    gen_two_moons,
    regenerate,
    separation_sweep,
)

__all__ = [
    "AffinityMatrix",
    "ComparisonTrial",
    "ConfigError",
    "DataError",
    "DensityRatioReport",
    "FeatureMatrix",
    "LabelAssignment",
    "NumericalError",
    "PmlpConfig",
    "PmlpError",
    "PropagationResult",
    "SeparationReport",
    "SoftLabelMatrix",
    "SyntheticDataset",
    "ThresholdSchedulerState",
    "assignments_from_dataset",
    "batch_normalized_density",
    "batch_path_density_info",
    "build_affinity",
    "compare_pmlp_vs_lpa",
    "default_neighbor_count",
    "density_ratio",
    "density_ratio_sweep",
    "gen_gaussian_blobs",
    "gen_two_moons",
    "knn_edges",
    "mix_final",
    "normalize_symmetric",
    "propagate_closed_form",
    "regenerate",
    "run_classical_lpa",
    "run_pmlp",
    "separation_sweep",
    "soft_labels_from_assignments",
    "split_by_confidence",
    "threshold_increment",
    "update_threshold",
    "validate_config",
]
