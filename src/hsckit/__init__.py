"""hsckit: holomorphic sectional curvature toolkit.

Three computation surfaces:

* root systems and the marked-node positivity criterion for homogeneous
  Kähler-Einstein metrics (``rootsys``, ``cspace``),
* pointwise Kähler curvature tensors, distinguished-frame closed forms and
  numerical HSC extremization (``curvature``, ``extremize``),
* Chern-number geography of surfaces of general type against the bound
  ``c2 <= 3 c1^2`` (``geography``).

All values are immutable after construction and all operations are pure
functions, safe for concurrent use.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    FrameConstraintViolated,
    HsckitError,
    InadmissibleRank,
    MissingChernNumbers,
    NodeOutOfRange,
    NotEinstein,
    NotSurface,
    NotUnitary,
    RegimeViolation,
    TensorFormatError,
)
from .rootsys import (
    DEFAULT_MAX_RANK,
    LieType,
    Root,
    RootSystem,
    cartan_matrix,
    closure_from_cartan,
    expected_positive_root_count,
    highest_root,
    level_set,
    positive_roots,
)
from .cspace import (
    AuditEntry,
    AuditReport,
    CSpaceDescriptor,
    CSpaceVerdict,
    audit_against_published,
    classify_all,
    itoh_positive,
    published_positive,
)
from .curvature import (
    Direction,
    EinsteinFramePoint,
    KahlerCurvatureTensor,
    SYMMETRY_TOL,
    ValidationReport,
    assemble_einstein_surface,
    chern_weil,
    constant_hsc_tensor,
    hsc,
    hsc_surface_closed_form,
    max_hsc_surface,
    product_tensor,
    ricci,
    scalar,
    sufficient_negativity,
    tensor_from_dict,
    tensor_to_dict,
    transform_frame,
    validate,
)
from .extremize import (
    DistinguishedFrame,
    ExtremizeConfig,
    ExtremizeResult,
    SampleResult,
    distinguished_frame,
    extremize_hsc,
    sample_hsc,
    sample_unit_sphere,
)
from .geography import (
    GeographyVerdict,
    SurfaceRecord,
    blowup_transform,
    builtin_surface_table,
    check_inequality,
    horikawa_scan,
    noether_fill,
    plot_columns,
    records_from_json,
    records_to_json,
    todorov_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]
