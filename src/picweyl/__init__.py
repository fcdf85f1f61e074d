"""Weyl group actions on Picard lattices of rational surfaces.

The lattice/weyl/catalog layer is exact integer arithmetic on Z^{1,n};
fields/projgeom/plane/cubic verify point configurations through group laws
on plane cubics; smith/residue carry the quadratic-form arithmetic mod m
behind the root-search certificates; cli wraps the lot for the shell.

Public names resolve on first access (PEP 562), so ``import picweyl``
loads no layer and a caller pays only for the layers it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# (module, public names it defines): the one source of the package's exports
_EXPORTS = (
    ("errors", (
        "BudgetError", "CurveError", "DomainError", "ReducibleCurveError",
        "UnsupportedCurveError",
    )),
    ("lattice", (
        "HyperbolicLattice", "LatticeIsometry", "LatticeVector", "basis_vector",
        "canonical_vector", "gram_matrix", "inner", "root_basis_coordinates", "simple_roots",
        "vector",
    )),
    ("weyl", (
        "IsometryClass", "apply_word", "classify_isometry", "invariant_sublattice_basis",
        "iota", "iota_isometry", "noether_reduce", "reflect", "reflection_isometry",
        "simple_reflection", "translation_isometry", "word_to_isometry",
    )),
    ("catalog", (
        "ClassFamily", "catalog_to_csv", "coble_conditions", "enumerate_roots",
        "halphen_prohibited_classes", "q2_value", "residue_counts_mod2", "residue_mod2",
    )),
    ("fields", ("ExtensionField", "Field", "FieldElement", "PrimeField", "RationalField")),
    ("projgeom", ("Poly3", "ProjectivePoint")),
    ("cubic", (
        "CubicCurveModel", "RestrictionImage", "SmoothPoint", "classify_cubic",
        "halphen_index_check", "harbourne_check", "kernel_submodule_generators",
        "restriction_hom", "torsion_set_check", "unnodal_by_kernel",
    )),
    ("plane", (
        "PointConfiguration", "act_by_word", "configuration", "cremona_quadratic",
        "effective_curves_basis", "effectivity_test", "is_coble_set", "is_unnodal_halphen",
        "projectively_equivalent",
    )),
    ("smith", ("integer_kernel", "integer_left_inverse", "smith_normal_form", "solve_integer")),
    ("residue", (
        "ReflectionProduct", "ResidueModule", "ResidueSubmodule", "RootSearchResult",
        "adjust_to_spin", "apply_reflection", "find_root_in_submodule", "represent_unit",
        "spinor_norm", "square_class", "witt_extend",
    )),
)

__all__ = tuple(sorted(name for _, names in _EXPORTS for name in names))


def __getattr__(name: str):
    for module, names in _EXPORTS:
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
