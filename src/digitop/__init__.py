"""Exact coincidence and fixed-point spectra of finite digital images.

An image is a finite set of lattice points with a symmetric adjacency;
maps are adjacency-preserving functions.  The library enumerates map
spaces, decides homotopy questions by reachability through one-step
deformations, and computes which coincidence and fixed-point counts are
achievable, both for concrete map tuples and across whole homotopy
classes.  ``verify`` re-derives the structural laws everything relies on;
the ``digitop`` command exposes all of it from the shell.
"""

from .builders import (
    builtin,
    builtin_names,
    cube,
    cube_minus_vertex,
    cycle,
    discrete,
    figure1,
    interval,
    random_connected_image,
    singleton,
    square4,
    tee4,
)
from .enumeration import (
    UNLIMITED,
    EnumerationBudget,
    EnumerationOutcome,
    count_continuous_maps,
    enumerate_continuous_maps,
    one_step_neighbors,
)
from .errors import ContinuityError, InvalidInputError
from .fileio import dump_image, dump_map, load_image, load_map
from .homotopy import (
    HomotopyAnswer,
    HomotopyClass,
    HomotopyWitness,
    are_homotopic,
    homotopy_class,
    is_contractible,
    is_nullhomotopic,
    is_rigid_image,
    is_rigid_map,
    one_step_homotopic,
)
from .homotopy_spectra import (
    HomotopySpectrumResult,
    SelfCoincidenceSequence,
    hcs,
    hcs_of_classes,
    hfs,
    hfs_of_classes,
    m_j_of_map,
    mc,
    mcf,
    self_coincidence_sequence,
)
from .images import (
    CT,
    DigitalImage,
    Explicit,
    Isomorphism,
    components,
    ct_adjacent,
    find_isomorphism,
    image_from_json_dict,
    is_connected,
    is_totally_disconnected,
    neighbors,
)
from .maps import (
    DigitalMap,
    coincidence_set,
    common_fixed_set,
    compose,
    conjugate,
    constant,
    fixed_point_set,
    from_assignment,
    identity,
    is_continuous,
)
from .spectra import (
    Spectrum,
    coincidence_spectra_by_arity,
    coincidence_spectrum,
    coincidence_spectrum_by_search,
    coincidence_spectrum_union,
    common_fixed_spectrum,
    common_fixed_spectrum_union,
    fixed_point_spectrum,
)

# ``verify`` loads on first use of one of its names (PEP 562): only the
# machine checks need it, and most commands never run them
_VERIFY_NAMES = frozenset(
    {
        "SUITES",
        "RunConfig",
        "VerificationReport",
        "check_figure_examples",
        "conjecture_search",
        "disjoint_paths",
        "iso_invariance_reports",
        "mj_reports",
        "random_pair_property_reports",
        "run_suite",
        "subset_sums",
    }
)


def __getattr__(name: str):
    if name not in _VERIFY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify

    value = getattr(verify, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _VERIFY_NAMES)

__version__ = "0.1.0"

__all__ = [
    "CT",
    "ContinuityError",
    "DigitalImage",
    "DigitalMap",
    "EnumerationBudget",
    "EnumerationOutcome",
    "Explicit",
    "HomotopyAnswer",
    "HomotopyClass",
    "HomotopySpectrumResult",
    "HomotopyWitness",
    "InvalidInputError",
    "Isomorphism",
    "RunConfig",
    "SUITES",
    "SelfCoincidenceSequence",
    "Spectrum",
    "UNLIMITED",
    "VerificationReport",
    "are_homotopic",
    "builtin",
    "builtin_names",
    "check_figure_examples",
    "coincidence_set",
    "coincidence_spectra_by_arity",
    "coincidence_spectrum",
    "coincidence_spectrum_by_search",
    "coincidence_spectrum_union",
    "common_fixed_set",
    "common_fixed_spectrum",
    "common_fixed_spectrum_union",
    "components",
    "compose",
    "conjecture_search",
    "conjugate",
    "constant",
    "count_continuous_maps",
    "ct_adjacent",
    "cube",
    "cube_minus_vertex",
    "cycle",
    "discrete",
    "disjoint_paths",
    "dump_image",
    "dump_map",
    "enumerate_continuous_maps",
    "figure1",
    "find_isomorphism",
    "fixed_point_set",
    "fixed_point_spectrum",
    "from_assignment",
    "hcs",
    "hcs_of_classes",
    "hfs",
    "hfs_of_classes",
    "homotopy_class",
    "identity",
    "image_from_json_dict",
    "interval",
    "is_connected",
    "is_continuous",
    "is_contractible",
    "is_nullhomotopic",
    "is_rigid_image",
    "is_rigid_map",
    "is_totally_disconnected",
    "iso_invariance_reports",
    "load_image",
    "load_map",
    "m_j_of_map",
    "mc",
    "mcf",
    "mj_reports",
    "neighbors",
    "one_step_homotopic",
    "one_step_neighbors",
    "random_connected_image",
    "random_pair_property_reports",
    "run_suite",
    "self_coincidence_sequence",
    "singleton",
    "square4",
    "subset_sums",
    "tee4",
]
