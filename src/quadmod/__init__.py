"""Counting and exactly-uniform sampling of solutions of x'Qx = t
modulo prime powers, with block diagonalization, value symbols, local
densities, and a brute-force oracle for testing."""

from .blockdiag import (
    BlockDiagForm,
    TypeI,
    TypeII,
    block_diagonalize,
    check_symmetric,
)
from .counting import (
    PreparedForm,
    RepCounts,
    SingularForm,
    ZeroTarget,
    count_composite,
    count_factors,
    count_form,
    form_counts_by_symbol,
    local_density,
    prepare,
)
from .modring import (
    INF,
    DomainError,
    PrimePower,
    Valuation,
    is_probable_prime,
    legendre,
    valuation,
)
from .sampling import (
    RepKind,
    sample_composite,
    sample_factors,
    sample_form,
    sample_prepared,
    sample_split,
    sample_symbol_elem,
)
from .sqroots import (
    NonResidue,
    NotASquare,
    lift_sqrt_odd,
    sqrt_unit_mod_2k,
    sqrt_unit_mod_p,
)
from .symbols import (
    PkSymbol,
    class_size,
    enumerate_symbols,
    split_class_size,
    symbol_of,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "BlockDiagForm",
    "DomainError",
    "NonResidue",
    "NotASquare",
    "PkSymbol",
    "PreparedForm",
    "PrimePower",
    "RepCounts",
    "RepKind",
    "SingularForm",
    "TypeI",
    "TypeII",
    "Valuation",
    "ZeroTarget",
    "block_diagonalize",
    "check_symmetric",
    "class_size",
    "count_composite",
    "count_factors",
    "count_form",
    "enumerate_symbols",
    "form_counts_by_symbol",
    "is_probable_prime",
    "legendre",
    "lift_sqrt_odd",
    "local_density",
    "prepare",
    "sample_composite",
    "sample_factors",
    "sample_form",
    "sample_prepared",
    "sample_split",
    "sample_symbol_elem",
    "split_class_size",
    "sqrt_unit_mod_2k",
    "sqrt_unit_mod_p",
    "symbol_of",
    "valuation",
]
