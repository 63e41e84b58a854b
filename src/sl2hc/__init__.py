"""Exact computations with Harish-Chandra modules for SL(2,R).

The package works in the Grothendieck group of finite-length modules:
tensor decompositions with finite-dimensional modules, composition series
of principal series, K-type asymptotics, the lattice of thick
tensor-submodules, and an independent matrix oracle cross-checking every
closed-form answer.
"""

from types import ModuleType as _ModuleType

from .core import (
    ASCone,
    DiscreteSeries,
    FinDim,
    InfChar,
    IrreducibleClass,
    KTypeFunction,
    PrincipalIrr,
    Scalar,
    VirtualModule,
    as_cone,
    as_cone_module,
    as_scalar,
    casimir_value,
    class_sort_key,
    display_sort_key,
    format_class,
    format_scalar,
    format_virtual_module,
    inf_char,
    is_integer,
    ktype_function,
    module_ktype_function,
    parse_class,
    principal_is_irreducible,
    principal_iso_equal,
)
from .tensor import (
    Irr,
    LengthTwo,
    PsIrreducible,
    PsNegativeInt,
    PsPositiveInt,
    PsSplitLimit,
    ReducibleSeries,
    SeriesStructure,
    Summand,
    block_parameter,
    clebsch_gordan,
    decomposition_semisimplification,
    decomposition_to_dict,
    ds_tensor,
    format_summand,
    format_series_block,
    grothendieck_tensor,
    ktype_conservation_holds,
    primary_split,
    ps_structure,
    ps_tensor,
    series_semisimplification,
    summand_semisimplification,
    tensor_with_finite,
    weyl_signed_tensor,
)
from .oracle import (
    CasimirReport,
    FinDimRealization,
    PrincipalSeriesRealization,
    UnexpectedEigenvalueError,
    VerificationVerdict,
    casimir_matrix,
    casimir_on_symmetric_power,
    casimir_report,
    default_window,
    reducibility_points,
    report_to_dict,
    verdict_to_dict,
    verify_tensor,
)
from .lattice import (
    ANTIHOL_POINT,
    FD_POINT,
    HOL_POINT,
    ClassPoint,
    PosetOps,
    class_closure,
    classify_irreducible,
    closure,
    cover_edges,
    enumerate_submodule_sets,
    format_point,
    format_point_set,
    generated_submodule,
    irreducible_closed_sets,
    orbit_label,
    point_sort_key,
    ps_class_equal,
    ps_class_point,
    reduce_to_base,
    specialization_edges,
    sub_poset_ops,
    is_valid_submodule_set,
)
from .cli import main

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
