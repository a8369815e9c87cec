"""formpipe: headless structural pipeline for line-geometry exchange models.

Parse/write the VTK-dialect exchange format, validate and repair model
topology, solve linear statics on 3D beam/truss structures and report the
cross-section resistance ratio.
"""

from .model import (
    BEAM_LINE,
    TRUSS_LINE,
    BoundaryConditionEntry,
    Cell,
    Circle,
    CrossSection,
    GenericSection,
    Material,
    Point,
    Rectangle,
    RigidLink,
    SectionProperties,
    StructuralModel,
    ValidationReport,
    section_properties,
    validate,
)
from .exchange import ExchangeFormatError, parse_model, read_model, write_model, write_results_vtk
from .topology import (
    RepairReport,
    TopologyError,
    check_support_reachability,
    make_rigid_link,
    merge_duplicate_nodes,
    prune_dead_arms,
    remove_degenerate_cells,
    remove_detached_components,
)
from .resistance import ResultSet, build_result_set, classify, deformed_geometry

__version__ = "0.1.0"

# Names whose modules only some commands need load on first use (PEP 562):
# only ``solve`` runs the solver, which loads no scipy, and only ``gen``
# builds cases.
_LAZY = dict.fromkeys((
    "ConvergenceError", "DofMap", "LinearSystem", "MechanismError", "SolveStats", "SolverError",
    "assemble", "element_stiffness", "expand_displacements", "reaction_forces",
    "recover_end_forces", "solve_direct", "solve_pcg_ichol",
), "solver") | dict.fromkeys((
    "CantileverSpec", "LatticeSpec", "LeonardoSpec", "arch_occupancy", "full_block_occupancy",
    "gen_cantilever", "gen_leonardo", "gen_sphere_lattice",
), "casegen")


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
