from .simplex import Simplex, nondeg, degenerate, degenerate_word, flag_map
from .complex import (SimplicialSet, point, standard_simplex,
                      simplex_cell, subcomplex, close_cells, is_closed,
                      boundary_cells, horn_cells)
from .poset import Poset, total_order, nerve, all_posets, poset_key
from .maps import (SimplicialMap, simplex_by_chain, map_by_vertices,
                   unwrap_label, enumerate_homs, find_isomorphism)
from .ops import (opposite, op_simplex, product, join, glue, pushout,
                  disjoint_union, quotient_by_key)
from .io import (complex_to_json, complex_from_json, complexes_equal,
                 dot_skeleton, hasse_dot, encode_label, decode_label)
