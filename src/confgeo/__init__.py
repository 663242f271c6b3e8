"""Numerical conformal geometry of space-like hypersurfaces in Lorentzian space forms.

The library computes the conformal metric, the conformal form, the
Blaschke tensor and the conformal second fundamental form of regular
space-like hypersurface patches, verifies the structural identities these
invariants satisfy, and classifies hypersurfaces with parallel Blaschke
tensor into the branches of the underlying classification.
"""

from . import catalog as catalog
from .chart import (
    AmbientForm,
    Box,
    ImmersionChart,
    RegularityReport,
    chart_from_dict,
    chart_to_dict,
    grid_points,
    load_chart,
    save_chart,
    shape_batch,
    validate_regularity,
)
from .classifier import (
    ClassificationReport,
    EigenStructure,
    check_bibj,
    classify,
    classify_field,
    eigen_structure,
)
from .config import DEFAULT, Gate, NumericsConfig
from .conformal_atlas import (
    ConformalMapTag,
    compose_maps,
    conformality_witness,
    embed,
    lift_chart,
    projective_equal,
    psi,
    t_swap,
)
from .errors import (
    ChartDomainError,
    ComputationError,
    ConfGeoError,
    ConsistencyError,
    ConstructionError,
    DimensionMismatchError,
    DomainError,
    InputError,
    RegularityError,
    ValidationError,
)
from .invariants import (
    FrameRoute,
    InvariantField,
    evaluate_field,
    field_report,
    field_report_csv,
    frame_route,
)
from .pseudo_linalg import cluster_eigenvalues

__version__ = "0.1.0"
