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
from collections import namedtuple

__version__ = "0.1.0"

Cap = namedtuple("Cap", "value counts why")

# every size cap, by the name its module binds: its value, what it
# counts ("{}" standing for the count) and why it sits there
CAPS = {
    "DIM_CAP": Cap(8, "depth {}", "TWARROW_DIM_CAP overrides this default"),
    "SIMPLEX_CAP": Cap(14, "dimension {}",
        "Delta^14 has 32,767 cells; each step up doubles that"),
    "PRODUCT_CAP": Cap(50_000, "{} cells", "the tests and the suite build "
        "products of at most 2,900 cells; one at the cap takes about 3 s"),
    "GLUE_CAP": Cap(100_000, "{} cells", "input cells; the tests and the "
        "suite glue at most 512, and a gluing at the cap takes seconds "
        "before its relations count"),
    "COLLAPSE_CAP": Cap(100_000, "{} cells", "one at the cap takes 0.5 s"),
    "QUOTIENT_CAP": Cap(20_000, "{} simplices to key", "degenerate ones "
        "included; the tests and the suite key at most 375, and the 117,648 "
        "of an uncut two-sided mapping space of a 7-element chain take 10 s"),
    "NERVE_CAP": Cap(50_000, "{} cells", "the tests build nerves of at most "
        "12,543 cells (the ladder poset at n = 3); one of 94,585 cells (the "
        "chains of a 7-element chain that start below its top) takes 2 s"),
    "HANDLE_CAP": Cap(100_000, "{} cells", "indices from here on get a "
        "handle of their own; no constructor builds more in one dimension"),
    "CHAIN_POSET_CAP": Cap(16, "{} elements", "a chain on n elements has "
        "2^n - 1 chains, listed before CHAIN_ELEMENTS_CAP is checked"),
    "CHAIN_ELEMENTS_CAP": Cap(2_000, "{} elements", "the tests build chain "
        "posets of at most 105 elements; the inclusion pairs grow "
        "quadratically, and 1,953 elements (boxplus at n = 4) take 2 s"),
    "SIZE_CAP": Cap(40, "{} nondegenerate simplices", "a brute-force oracle"),
    "LADDER_CAP": Cap(3, "n = {}", "the largest level whose nerve fits "
        "NERVE_CAP (12,543 cells; n = 4 has 62,772), checked before the "
        "ladder poset is built"),
}

_dim_cap = os.environ.get("TWARROW_DIM_CAP", str(CAPS["DIM_CAP"].value))
if not _dim_cap.strip().isdecimal():
    raise ValueError(f"TWARROW_DIM_CAP must be a nonnegative integer, got "
                     f"{_dim_cap!r}")
DIM_CAP = int(_dim_cap)


def check_cap(name: str, n: int, what: str) -> None:
    """Refuse a count n above the cap ``name`` with a ValueError that
    gives who refuses (``what``), the count, the cap's value and name."""
    value, counts, _ = CAPS[name]
    if n > value:
        raise ValueError(f"{what}: {counts.format(n)}, cap {value} ({name})")


def check_max_dim(max_dim: int, setting: str = "max_dim") -> None:
    """Refuse a depth outside 0..DIM_CAP with a ValueError that names
    the setting and the bound."""
    if not 0 <= max_dim <= DIM_CAP:
        raise ValueError(f"{setting} {max_dim} outside 0..{DIM_CAP}, the "
                         f"dimension cap DIM_CAP")
