"""The acceptance suite, one test per check, at the stated budgets.

Each test runs the corresponding suite check in-process and re-asserts
its worked examples directly, so a regression names the failing fact
rather than just the failing check.
"""

import json
import os
import time

import pytest

from twarrow.anodyne import CertificateError, pivot_certificate
from twarrow.cli import CHECKS, SuiteConfig, run_suite
from twarrow.core.complex import standard_simplex
from twarrow.core.maps import find_isomorphism
from twarrow.core.poset import total_order
from twarrow.partitions import make_partition, mapping_space
from twarrow.zoo import q_complex, q_thin_count

CFG = SuiteConfig()


def run(name, budget, cfg=CFG):
    t0 = time.perf_counter()
    ok, detail = CHECKS[name](cfg)
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < budget, f"{name} took {elapsed:.1f}s"
    return detail


def test_tw_matches_pair_poset_model():
    detail = run("tw-oracle", 60)
    assert "24 posets" in detail


def test_tw_projection_is_cartesian_fibration():
    run("tw-cartesian", 300)


def test_tw_projection_of_the_3_simplex_is_cartesian():
    # about 0.4 s on 2 shared vCPUs
    detail = run("tw-cartesian", 3, SuiteConfig(objects=(0, 1, 2, 3)))
    assert detail == "simplex dimensions 0, 1, 2, 3: 760 squares lifted"


def test_tw_projection_of_the_4_simplex_is_cartesian():
    # about 0.7 s on 2 shared vCPUs
    detail = run("tw-cartesian", 2, SuiteConfig(objects=(4,)))
    assert detail == "simplex dimensions 4: 1680 squares lifted"


def test_tw_projection_of_the_3_simplex_is_cartesian_at_depth_4():
    # about 0.9 s on 2 shared vCPUs
    detail = run("tw-cartesian", 3, SuiteConfig(objects=(3,), dim_cap=4))
    assert detail == "simplex dimensions 3: 1548 squares lifted"


def test_smallest_pivot_stratum_is_basal():
    detail = run("kappa-strata", 60)
    assert "1256" in detail


def test_pivot_certificates_with_negative_control():
    run("pivot-certificates", 120)
    with pytest.raises(CertificateError) as err:
        pivot_certificate(q_complex(1), [{0}, {3}], pivot=1)
    assert err.value.witness == (0, 1, 3)


def test_staircase_decomposition_of_the_ladder():
    run("staircase-decomposition", 300)


def test_mapping_spaces_match_the_necklace_oracle():
    run("mapping-spaces", 300)
    for upper in ({2}, {1, 2}):
        part = make_partition(total_order(2), set(range(3)) - upper, upper)
        X = mapping_space(part, "right", j=0)
        assert find_isomorphism(X, standard_simplex(1)) is not None


def test_retractions_and_named_maps():
    run("comparison-maps", 120)


def test_prism_splitting_and_ladder_symmetries():
    run("ladder-identities", 60)


def test_scaling_counts_closed_form():
    run("scaling-counts", 10)
    assert q_thin_count(1) == 2 and q_thin_count(2) == 10


def test_cone_fiber_projection_is_trivial_fibration():
    run("cone-fiber", 60)


def test_infrastructure_invariants():
    run("infrastructure", 120)


SEED_3_CHECKS = [
    ("comparison-maps", True,
     "retractions split and 39 named-map reports pass"),
    ("cone-fiber", True, "projection lifts 9 squares; control fails"),
    ("infrastructure", True, "10 complexes, 87 posets, 27 round trips"),
    ("kappa-strata", True, "1256 dull-family strata match"),
    ("ladder-identities", True,
     "prism splitting, sizes, self-duality, scaled shifts"),
    ("mapping-spaces", True,
     "360 oracle comparisons and both segment examples"),
    ("pivot-certificates", True,
     "explicit example, negative control, and 6 built-in runs"),
    ("scaling-counts", True,
     "closed-form counts and mirror invariance at n <= 4"),
    ("staircase-decomposition", True,
     "16 staircase windows and 3 certificates"),
    ("tw-cartesian", True, "simplex dimensions 0, 1, 2: 191 squares lifted"),
    ("tw-oracle", True, "24 posets matched at depth 3"),
]


def test_suite_is_deterministic(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def capture(cpus):
        # the suite forks a helper only when it sees two free CPUs
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        _, report = run_suite(SuiteConfig(seed=3))
        return json.dumps(report, indent=2, sort_keys=True)

    first = capture(2)
    assert forks == [1]
    report = json.loads(first)
    assert report["ok"] is True
    # every report line, pinned
    assert [(c["check"], c["ok"], c["detail"])
            for c in report["checks"]] == SEED_3_CHECKS
    # the same report with every check run in this process
    assert capture(1) == first
    assert forks == [1]
