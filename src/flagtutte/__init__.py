"""Exact Tutte polynomials of matroids, polymatroids and flag matroids.

Matroid combinatorics, base polytopes with exact lattice-point machinery,
Hilbert series of vertex cones, and the torus-equivariant localization
pipeline that turns a flag matroid into its bivariate polynomial
invariant.  Everything is integer or rational arithmetic; nothing floats.

A public name, or a submodule, is imported on first use (PEP 562), so
``from flagtutte import fileio`` loads neither the lattice-point nor the
localization machinery.
"""

import importlib

_NAMES = {
    "errors": ("FlagTutteError", "Verdict"),
    "matroid": ("Matroid", "check_rank_axioms", "cover_by_independent",
                "gale_max", "gale_max_family", "matroid_from_bases",
                "matroid_from_graph", "matroid_from_matrix",
                "uniform_matroid", "union_rank"),
    "polyflag": ("FlagMatroid", "Polymatroid", "enumerate_flags",
                 "flag_check_gale", "flag_from_constituents",
                 "flag_from_subspace_flag", "flag_weight", "is_quotient",
                 "lifted_independent", "poly_bases",
                 "polymatroid_from_matroid", "polymatroid_from_rank",
                 "polymatroid_from_subspaces", "polymatroid_of_flag",
                 "polymatroid_to_matroid", "vertex_from_ordering"),
    "laurent": ("LaurentPoly",),
    "lattice": ("HalfOpenSimplicialCone", "LatticePolytope", "RationalCone",
                "base_polytope", "cone_at_vertex", "count_shifted",
                "decompose_lattice_point", "edge_direction_check", "edges",
                "flag_polytope", "hilbert_numerator", "is_normal",
                "lattice_points", "minkowski_sum", "poly_base_polytope",
                "triangulate"),
    "invariants": ("characteristic_poly", "log_concavity", "q_coefficients",
                   "qprime", "qprime_delcon_check", "ttoq_check",
                   "tutte_activity", "tutte_delcon", "tutte_eval",
                   "tutte_rank_nullity"),
    "ktheory": ("EquivariantClass", "FlagSpace", "ProjProductSpace",
                "k_tutte", "o1_class", "pullback", "pushforward_to_pp",
                "to_nonequivariant", "y_class"),
    "oracle": ("KRational", "evaluate_at_one", "hilbert_series"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items()
              for name in names}
_SUBMODULES = frozenset(_NAMES) | {"cli", "fileio", "linalg"}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:   # the import binds it in this namespace
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value   # later lookups skip this hook
    return value
