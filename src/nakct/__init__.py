"""Exact combinatorial models of Nakayama algebras and their module
categories: AR quivers, syzygies, Hom/Ext dimensions over the rationals,
verification and enumeration of n- and nZ-cluster tilting subcategories,
the complete existence classification with explicit constructions, and the
Frobenius-category model of the singularity category."""

from .algebra import (
    Algebra,
    HomogeneitySpec,
    Kind,
    bounds,
    canonical_rotation,
    cut_points,
    from_kupisch,
    glue,
    homogeneous,
    is_homogeneous,
    is_selfinjective,
    self_glue,
    unglue,
)
from .classify import (
    Case,
    ClassificationResult,
    Decomposition,
    Piece,
    admits_homog_nct,
    classify_nz,
    decompose,
)
from .errors import (
    FiniteGlobalDimension,
    GroundSetTooLarge,
    InternalError,
    InvalidKupisch,
    InvalidParameter,
    InvalidSubcategory,
    KindMismatch,
    NakctError,
    NoArrow,
    NotACutPoint,
    NotInClassifiedCase,
)
from .modules import (
    INFINITY,
    ZERO,
    ARQuiver,
    Indec,
    ar_quiver,
    canonical,
    cover_hull,
    ext_dim,
    ext_dims_upto,
    gldim,
    hom_dim,
    indec,
    indecomposables,
    injectives,
    is_injective,
    is_projective,
    min_resolution,
    omega,
    projective_dimension,
    projectives,
    simple,
    tau_n,
    translate,
)
from .singularity import (
    FCategory,
    GammaPresentation,
    ResolutionQuiver,
    SingClusterTilting,
    SingImage,
    cyclic_simples,
    f_objects,
    gamma,
    gorenstein_witness,
    resolution_quiver,
    sing_ct,
    sing_image,
)
from .tilting import (
    Failure,
    VerifyReport,
    enumerate_ct,
    tau_n_closure,
    verify_ct,
)

__version__ = "0.1.0"
