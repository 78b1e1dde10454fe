"""The workloads of the twarrow benchmark, and the worker that runs them.

``bench/run.py`` starts this file as a fresh process, from the root of a
checkout:

    python3 bench/workloads.py --mode MODE --workload NAME --seed S \\
        --passes P --out FILE

``setup`` imports the package and builds the workload's inputs, nothing
more; ``plain`` then runs P passes over them; ``traced`` runs one pass
with the tracer installed.  The result goes to FILE as JSON.

Every input comes from the seed: the same seed gives the same inputs.
The seed only relabels fixed isomorphism classes of posets (random
element names, element order and pair order), so a seed changes what the
program sees but not how much work a pass is.  Each pass is a list of
units timed one by one; a unit's lap runs from the end of the previous
unit, so the laps of a pass add up to its wall time.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import twarrow  # noqa: E402
from twarrow import fibration, necklace, partitions, twisted  # noqa: E402
from twarrow.cli import CHECKS, SuiteConfig  # noqa: E402
from twarrow.core import maps, poset  # noqa: E402
from twarrow.core.complex import standard_simplex  # noqa: E402
from twarrow.core.poset import Poset  # noqa: E402
from twarrow.decor import sharp  # noqa: E402

from tracer import Tracer, cache_entries  # noqa: E402

# Passes call the package's traced functions through their modules, never
# through names bound here, so that the tracer's wrappers see every call.

# -- seeded posets -----------------------------------------------------

# posets on 1..5 points up to isomorphism, OEIS A000112
POSET_CLASSES = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


def poset_classes(n: int) -> list[list[tuple[int, int]]]:
    """One strict order relation on 0..n-1 per isomorphism class, each
    naturally labelled (a < b whenever a is below b).  Enumerated here,
    not with the program's ``all_posets``, so the oracle does not grade
    its own inputs."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    reps: dict[tuple, list] = {}
    for mask in range(1 << len(pairs)):
        rel = [p for k, p in enumerate(pairs) if mask >> k & 1]
        closed = set(rel)
        if any((a, d) not in closed
               for a, b in rel for c, d in rel if b == c):
            continue
        key = min(tuple(sorted((pm[a], pm[b]) for a, b in rel))
                  for pm in perms)
        reps.setdefault(key, rel)
    if len(reps) != POSET_CLASSES[n]:
        raise RuntimeError(f"found {len(reps)} classes of {n}-point posets")
    return [reps[k] for k in sorted(reps)]


def draw_labelled(rng: random.Random, n: int, rel) -> Poset:
    """A random labelled copy of the naturally labelled poset ``rel``:
    random element names, listed in a random linear extension."""
    names = rng.sample(range(10 * n), n)
    below = {b: {a for a, c in rel if c == b} for b in range(n)}
    order: list[int] = []
    while len(order) < n:
        order.append(rng.choice([b for b in range(n) if b not in order
                                 and below[b] <= set(order)]))
    pairs = [(names[a], names[b]) for a, b in rel]
    rng.shuffle(pairs)
    return Poset([names[i] for i in order], pairs)


# -- lift-search -------------------------------------------------------

DEPTH = 3
# Cartesian fibration squares at depth 3, the known answers
SIMPLEX_SQUARES = {0: 3, 1: 31, 2: 157, 3: 569}
SHAPES = {
    "diamond": ([(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)], 283),
    "bowtie": ([(0, 2), (0, 3), (1, 2), (1, 3)], 112),
    "zigzag": ([(0, 2), (1, 2), (1, 3)], 87),
}
INNER_HORNS = tuple((n, i) for n in range(2, 5) for i in range(1, n))


def lift_inputs(seed: int, passes: int):
    """Units of one pass: Cartesian checks that must pass with the known
    square count, then negative controls that must fail with a
    counterexample ``solve_lift`` confirms has no lift.  The tw
    projection of tw(Delta^0) is an isomorphism, so it is no control."""
    rng = random.Random(seed)
    units, controls = [], []
    for d, squares in SIMPLEX_SQUARES.items():
        twc = twisted.twisted_arrow(sharp(standard_simplex(d)), DEPTH)
        f = twisted.tw_projection(twc)[0]
        units.append((f"cartesian tw(D^{d})", squares,
                      functools.partial(_cartesian, f, twc.dec, squares)))
        if d:
            controls.append((f"trivial tw(D^{d})", f))
    for name, (rel, squares) in SHAPES.items():
        P = draw_labelled(rng, 4, rel)
        twc = twisted.twisted_arrow(sharp(poset.nerve(P)), DEPTH)
        f = twisted.tw_projection(twc)[0]
        units.append((f"cartesian tw({name})", squares,
                      functools.partial(_cartesian, f, twc.dec, squares)))
        controls.append((f"trivial tw({name})", f))
    for n, i in INNER_HORNS:
        units.append((f"inner horn({n},{i})", 1, functools.partial(
            _control, "inner_fibration", fibration.horn_inclusion(n, i), n)))
    for name, f in controls:
        units.append((name, 1, functools.partial(
            _control, "trivial_fibration", f, DEPTH)))
    return [units] * passes


def _cartesian(f, dec, squares):
    rep = fibration.cartesian_fibration(f, dec, DEPTH)
    return rep.squares, rep.ok and rep.squares == squares, [rep.ok,
                                                            rep.squares]


def _control(prop, f, depth):
    rep = getattr(fibration, prop)(f, depth)
    unsolvable = (rep.counterexample is not None
                  and fibration.solve_lift(rep.counterexample) is None)
    # the recheck by solve_lift is one more lifting problem decided
    return rep.squares + 1, not rep.ok and unsolvable, [rep.ok, rep.squares,
                                                        unsolvable]


# -- oracle-sweep ------------------------------------------------------

ORACLE_SIZE = 5


def oracle_inputs(seed: int, passes: int):
    """Each pass: a fresh labelled copy of every class of 5-point poset,
    in a random order."""
    rng = random.Random(seed)
    classes = poset_classes(ORACLE_SIZE)
    batches = []
    for _ in range(passes):
        batch = [draw_labelled(rng, ORACLE_SIZE, rel) for rel in classes]
        rng.shuffle(batch)
        batches.append(batch)
    return [_oracle_units(batch) for batch in batches]


def _oracle_units(posets):
    for P in posets:
        for r in range(1, len(P.elements)):
            for lo in itertools.combinations(P.elements, r):
                hi = [e for e in P.elements if e not in lo]
                try:
                    part = partitions.make_partition(P, lo, hi)
                except ValueError:
                    continue  # not an ordered partition
                yield "two-sided", 1, functools.partial(_two_sided, part)
                upper: dict = {}
                for j in sorted(part.lower, key=str):
                    yield "right", 1, functools.partial(_right, part, j,
                                                        upper)
        yield "tw", 1, functools.partial(_tw, P)


def _two_sided(part):
    X = partitions.mapping_space(part, "two_sided", top_dim=2)
    col = partitions.collapse_both(part)
    M = necklace.necklace_oracle(col.dec.space, col.base0, col.base1)
    found = maps.find_isomorphism(X, M) is not None
    return 1, found, [found]


def _right(part, j, upper):
    # the right-mode ops of one partition share one collapse, as in the
    # suite's mapping-spaces check
    if "col" not in upper:
        upper["col"] = partitions.collapse_upper(part)
    colu = upper["col"]
    X = partitions.mapping_space(part, "right", j=j, top_dim=2)
    v = colu.quot(maps.simplex_by_chain(colu.quot.source, (j,))).base
    M = necklace.necklace_oracle(colu.dec.space, v, colu.base1)
    found = maps.find_isomorphism(X, M) is not None
    return 1, found, [found]


def _tw(P):
    twc = twisted.twisted_arrow(sharp(poset.nerve(P)), DEPTH)
    iso = twisted.tw_comparison(P, twc).is_isomorphism()
    return 1, iso, [iso]


# -- suite checks in process (traced runs only) ------------------------


def suite_inputs(seed: int, passes: int):
    cfg = SuiteConfig(seed=seed)
    units = [(name, 1, functools.partial(_check, name, cfg))
             for name in CHECKS]
    return [units] * passes


def _check(name, cfg):
    ok, detail = CHECKS[name](cfg)
    return 1, ok, [ok, detail]


INPUTS = {
    "suite-cold": suite_inputs,
    "lift-search": lift_inputs,
    "oracle-sweep": oracle_inputs,
}

# -- running -----------------------------------------------------------


def run_pass(units) -> dict:
    """Run the units one by one; an op fails if its verdict differs from
    the known answer or if it raised."""
    names, laps_ms, cpu_ms, verdicts = [], [], [], []
    ops = failed = errors = 0
    c0 = c_last = time.process_time()
    t0 = t_last = time.perf_counter()
    for name, expected_ops, fn in units:
        try:
            n, ok, verdict = fn()
        except Exception as e:  # a raising op is a failed op; keep going
            n, ok, verdict = expected_ops, False, ["raised", repr(e)]
            errors += 1
            if errors <= 5:
                print(f"{name}: raised {e!r}", file=sys.stderr)
        now, cnow = time.perf_counter(), time.process_time()
        names.append(name)
        laps_ms.append((now - t_last) * 1e3)
        cpu_ms.append((cnow - c_last) * 1e3)
        t_last, c_last = now, cnow
        verdicts.append([name] + verdict)
        ops += n
        failed += 0 if ok else n
    return {"wall_s": t_last - t0, "cpu_s": c_last - c0, "ops": ops,
            "failed": failed, "names": names, "laps_ms": laps_ms,
            "cpu_ms": cpu_ms, "verdicts": verdicts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "plain", "traced"),
                    required=True)
    ap.add_argument("--workload", choices=sorted(INPUTS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if not Path(twarrow.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"twarrow was imported from {twarrow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    passes = INPUTS[args.workload](args.seed, args.passes)
    out: dict = {}
    if args.mode == "plain":
        out["passes"] = [run_pass(units) for units in passes]
    elif args.mode == "traced":
        tracer = Tracer()
        tracer.install()
        out["passes"] = [run_pass(passes[0])]
        out["metrics"] = {**tracer.metrics(), **cache_entries()}
        out["checks"] = list(CHECKS)
    out["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
