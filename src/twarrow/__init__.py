"""twarrow: a combinatorial workbench for finite simplicial sets.

Subpackages and modules:

- ``core``: simplices, complexes, posets, maps, products/joins/glueing, IO
- ``decor``: scaled (thin triangles) and marked (edges) structure
- ``zoo``: the cosimplicial objects used by the twisted arrow machinery
- ``twisted``: twisted arrow complexes, slices, and their comparisons
- ``partitions``: ordered partitions of posets and mapping spaces
- ``posetmaps``: the named chain-poset comparison maps and descent checks
- ``necklace``: independent mapping-space enumeration through necklaces
- ``anodyne``: extension certificates and the dull-family engine
- ``certificates``: the built-in filling certificate generators
- ``fibration``: lifting problems and fibration checks
- ``cli``: the ``twarrow`` command line tool
"""

import os

DIM_CAP = int(os.environ.get("TWARROW_DIM_CAP", "8"))

__version__ = "0.1.0"


def check_max_dim(max_dim: int) -> None:
    """Refuse a depth outside 0..DIM_CAP with a ValueError that names
    the bound."""
    if not 0 <= max_dim <= DIM_CAP:
        raise ValueError(f"max_dim {max_dim} outside 0..{DIM_CAP}, the "
                         f"dimension cap")
