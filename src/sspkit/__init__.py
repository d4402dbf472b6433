"""Exact combinatorics of 0/1-polytope skeletons.

Stable-set, cardinality-restricted, and matroid polytopes; edge tests by
unique vertex-sum decomposition cross-checked against an exact adjacency
oracle (a checked two-member witness or separating functional, else LP);
exact facet enumeration; constructive short paths.

The namespace is lazy (PEP 562): `import sspkit` loads no submodule, and
each public name imports its module on first use, so a CLI call loads
only what its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "families": (
        "FAMILY_BUILDERS", "SetPartition", "arcs_to_partition",
        "build_bell_graph", "build_comparability_graph",
        "build_noncrossing_graph", "build_nonnesting_graph",
        "build_rook_graph", "containment_pairs", "is_noncrossing",
        "is_nonnesting", "pair_ground",
    ),
    "geometry": (
        "Inequality", "always_facet_inequalities", "classify_inequality",
        "clique_inequality", "enumerate_facets", "is_facet", "nonnegativity",
    ),
    "graphs": (
        "GroundSet", "SimpleGraph", "Skeleton", "SizeLimitError",
        "ZeroOnePolytope", "birkhoff_restrict", "enumerate_max_cliques",
        "enumerate_stable_sets", "is_union_of_complete_graphs",
    ),
    "linalg": ("PivotLimitError", "lp_feasible"),
    "matroids": (
        "AxiomViolation", "basis_exchange_adjacent",
        "basis_polytope", "build_graphic", "build_partition", "build_uniform",
        "check_matroid_axioms", "independence_polytope", "strong_exchange",
    ),
    "counterexample": (
        "is_stable_set_family", "maximal_family_polytope", "modified_cube",
        "remark_graph", "verify_remark",
    ),
    "oracle": ("build_skeleton_oracle", "oracle_is_edge"),
    "skeleton": (
        "build_skeleton_E", "diameter", "flip_path", "is_edge_E",
        "is_edge_walk", "quasimatroid_exchange", "unique_sum_skeleton",
    ),
    "verify": ("SUITES", "run_suites"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{mod}"), name)
