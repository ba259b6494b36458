"""Finite-lattice workbench.

Carriers are finite complete lattices over indices 0..n-1.  The package
covers join/meet-continuous maps and their adjoints, the two transforms
built from complement-style folds, interiors, the endo homset with its
composition structure, residuals, the star operation, detectors for
cyclic / dualizing / central / codualizing members, criteria for
complete distributivity, a registry of law checks over a built-in
corpus, and a CLI (`latq`).
"""

import types as _types

from .cd import (
    CheckResult,
    LatticeProfile,
    classify_lattice,
    completely_join_primes,
    criteria_agree,
    distributive_oracle,
    is_smooth,
    is_spatial,
    raney_join_criterion,
    raney_meet_criterion,
)
from .docio import (
    dumps,
    lattice_from_doc,
    lattice_to_doc,
    load_lattice,
    load_map,
    map_from_doc,
    map_to_doc,
    save_lattice,
    save_map,
)
from .errors import (
    CapExceeded,
    CycleDetected,
    DomainMismatch,
    IndexOutOfRange,
    LatqError,
    NotALattice,
    NotContinuous,
    NotEndoHomset,
    ParseError,
    TooLarge,
)
from .lattice import (
    GeneratorSpec,
    Lattice,
    Poset,
    all_posets,
    build_lattice,
    build_poset,
    distributivity_witness,
    downset_lattice,
    dual,
    generate,
    is_chain,
)
from .maps import (
    LatMap,
    MapClass,
    all_maps_array,
    big_meet,
    classify,
    compose,
    identity,
    interior,
    is_join_continuous,
    is_meet_continuous,
    is_monotone,
    left_adjoint,
    monotone_maps_array,
    pointwise_join,
    pointwise_meet,
    raney_join,
    raney_meet,
    right_adjoint,
    sample_monotone_maps,
    special,
)
from .quantale import (
    DEFAULT_CAP,
    HomsetEnumeration,
    central_elements,
    check_involutive_axioms,
    codualizing_elements,
    cyclic_dualizing_elements,
    cyclic_elements,
    dual_tensor,
    dualizing_elements,
    enumerate_homset,
    homset_lattice,
    is_codualizing,
    is_cyclic,
    is_dualizing,
    residual_left,
    residual_right,
    star,
)
from .suite import (
    CHECK_IDS,
    REGISTRY,
    VERSION as __version__,
    SuiteReport,
    TheoremCheck,
    builtin_corpus,
    run_suite,
)

__all__ = [name for name, value in list(globals().items()) if not (
    name.startswith("_") or isinstance(value, _types.ModuleType))]
__all__.append("__version__")
