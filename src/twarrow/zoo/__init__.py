from .simplexlike import (
    mirror, tau_subset, q_thin_triangle, q_thin_cells, q_complex,
    q_thin_count, q_diamond_extra, q_diamond, tau_map,
    q_core_cells, q_core_extended_cells, q_core_dull_family,
    star_thin_triangle, star_complex, boxplus_thin_triangle, boxplus_complex,
    cone_retraction, cone_inclusion,
    square_complex, join_parts,
)
from .cosimplicial import (
    VertexCosimplicial, mirror_join_object, cone_object,
    mirror_cone_object, coface, realize,
)
from .ladder import (
    Ladder, ladder_poset, ladder_leq, ladder_thin_chain, ladder_complex,
    bar_element, swap_element, prism_complex, prism_to_ladder,
    prism_vertex_to_ladder, ladder_vertex_to_prism,
    ladder_to_prism, ladder_shift_partial, ladder_shift_full,
    summand_eps, summand_cells, ladder_top_chain, top_cell_cells,
    band_cells, core_cells, ladder_core_cells, wedge_poset, core_comparison,
)

__all__ = [
    "mirror", "tau_subset", "q_thin_triangle", "q_thin_cells", "q_complex",
    "q_thin_count", "q_diamond_extra", "q_diamond", "tau_map",
    "q_core_cells", "q_core_extended_cells", "q_core_dull_family",
    "star_thin_triangle", "star_complex", "boxplus_thin_triangle",
    "boxplus_complex",
    "cone_retraction", "cone_inclusion",
    "square_complex", "join_parts",
    "VertexCosimplicial", "mirror_join_object", "cone_object",
    "mirror_cone_object", "coface", "realize",
    "Ladder", "ladder_poset", "ladder_leq", "ladder_thin_chain",
    "ladder_complex", "bar_element", "swap_element", "prism_complex",
    "prism_to_ladder", "prism_vertex_to_ladder", "ladder_vertex_to_prism",
    "ladder_to_prism", "ladder_shift_partial",
    "ladder_shift_full", "summand_eps", "summand_cells", "ladder_top_chain",
    "top_cell_cells", "band_cells", "core_cells", "ladder_core_cells",
    "wedge_poset", "core_comparison",
]
