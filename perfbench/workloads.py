"""Workload definitions: the fixed ring sets, the seeded query stream, and
the boundaries each workload must reach when traced.

Everything here is plain data or a pure function of the seed, so the parent
(`run.py`) and the measured child (`worker.py`) agree on the inputs without
either of them calling ringlab to make them.
"""
from __future__ import annotations

import random

WORKLOADS = ("suite-default", "query-small", "roundtrip-large")

SUITE_ARGV = ["suite", "--format", "json", "--jobs", "1"]
# The by-design false claims of the default corpus, plus the K0(Z2) shape half of T23.
SUITE_FAIL_IDS = frozenset({"T23", "F-corner", "F-l-shape", "F-k0-shape"})
SUITE_EXIT_CODE = 1

# Unital rings of order 4..8 that the query workload loads through File(...)
# from JSON written at set-up.  Only tables that no expression below repeats.
ENUM_DIR = ".perfbench/enum"
ENUM_ORDERS = (4, 8)
ENUM_RINGS = ("R4_1", "R4_2", "R4_4", "R8_1", "R8_2", "R8_3", "R8_5", "R8_6", "R8_7",
              "R8_9", "R8_18", "R8_20", "R8_24")


def _prods(*shapes) -> list[str]:
    return ["Prod(" + ",".join(f"Zn({a})" for a in shape) + ")" for shape in shapes]


# Distinct tables of order 4..81 covering every expression family, in four
# order strata (make_golden.py refuses an entry outside its stratum or one
# that repeats another entry's table).
QUERY_STRATA = (
    (4, 16, [f"Zn({k})" for k in range(4, 17)]
     + _prods((2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (2, 6), (3, 4), (2, 8), (4, 4),
              (2, 2, 2), (2, 2, 3), (2, 2, 2, 2))
     + ["M(2,Zn(2))", "K0(Zn(2))", "Hst(Zn(2),s=1,t=1)", "Tri(Zn(2),Zn(2))",
        "Corner(T(2,Prod(Zn(2),Zn(2))),e=19)", "Corner(T(2,Prod(Zn(2),Zn(2))),e=27)",
        "Corner(T(2,Prod(Zn(2),Zn(2))),e=49)", "Corner(T(3,Zn(2)),e=13)",
        "Corner(T(3,Zn(2)),e=29)", "Corner(Hst(Zn(3),s=1,t=1),e=4)",
        "Corner(T(2,Zn(4)),e=9)", "Corner(T(2,Zn(4)),e=13)",
        "Quot(T(2,Zn(4)),gens=[2])", "Quot(Prod(Zn(4),Zn(9)),gens=[3])",
        "Prod(T(2,Zn(2)),Zn(2))"]
     + [f'File("{ENUM_DIR}/{name}.json")' for name in ENUM_RINGS]),
    (17, 32, [f"Zn({k})" for k in range(17, 33)]
     + _prods((3, 6), (4, 5), (2, 11), (4, 6), (5, 5), (3, 9), (2, 16), (2, 3, 4),
              (3, 3, 3), (2, 3, 5))
     + ["Hst(Zn(3),s=1,t=1)", "Hst(Zn(3),s=1,t=2)", "Hst(Zn(3),s=2,t=2)",
        "Lst(Zn(2),s=1,t=1)", "Tri(Zn(3),Zn(3))", "Quot(Hst(Zn(4),s=1,t=3),gens=[2])"]),
    (33, 63, [f"Zn({k})" for k in (*range(33, 41), 48, 54, 60)]
     + _prods((6, 6), (3, 3, 2, 2))
     + ["Prod(M(2,Zn(2)),Zn(3))", "Prod(K0(Zn(2)),Zn(3))"]),
    (64, 81, [f"Zn({k})" for k in (64, 72, 81)]
     + ["M(2,Zn(3))", "T(2,Zn(4))", "T(3,Zn(2))", "T(2,Prod(Zn(2),Zn(2)))",
        "Ks(Zn(3),s=2)", "Hst(Zn(4),s=1,t=3)", "Morita(Zn(3),Zn(3))"]),
)
QUERY_POOL = tuple(expr for _, _, exprs in QUERY_STRATA for expr in exprs)

# Each session draws with replacement within each stratum, in proportion to its
# size, so every session has the same share of large rings.  96 draws from 110
# tables repeat about a third of them.
QUERIES_PER_SESSION = 96
# Predicates whose false verdict carries a witness that one evaluation re-checks.
WITNESS_PREDICATES = ("reversible", "abelian", "reduced", "delta-reversible")

# Orders 64..256 from eight families.  An order-512 table costs ~10 s per round
# trip on a 2-core 2.0 GHz VM (O(n^3) validation twice), longer than a whole run.
ROUNDTRIP_SET = (
    "T(3,Zn(2))",
    "Hst(Zn(4),s=1,t=3)",
    "Tri(Zn(4),Zn(4))",
    "Prod(M(2,Zn(2)),Zn(8))",
    "Prod(K0(Zn(2)),Zn(9))",
    "Lst(Zn(3),s=1,t=2)",
    "M(2,Zn(4))",
    "K0(Zn(4))",
)

# Work done by one traced run, fixed so that per-layer counts repeat exactly.
TRACED_SESSIONS = {"suite-default": 1, "query-small": 2, "roundtrip-large": 1}


def query_argvs(expr: str) -> tuple[list[str], list[str]]:
    """One query: every radical with all delta characterizations, then every predicate."""
    return ["radical", expr, "--all-characterizations"], ["check", expr]


def sessions(workload: str, seed: int):
    """The inputs of each worker session of a run, endlessly, from the seed."""
    rng = random.Random(seed)
    while True:
        if workload == "suite-default":
            yield []
        elif workload == "query-small":
            draws = []
            for _, _, exprs in QUERY_STRATA:
                k = round(QUERIES_PER_SESSION * len(exprs) / len(QUERY_POOL))
                draws += rng.choices(exprs, k=k)
            rng.shuffle(draws)
            yield draws
        elif workload == "roundtrip-large":
            order = list(ROUNDTRIP_SET)
            rng.shuffle(order)
            yield order
        else:
            raise ValueError(f"unknown workload {workload!r}")


# Boundaries a traced run of each workload must reach at least once; the
# expected shares are in README.md.  A name that stops resolving, or stops
# being called, fails the traced run instead of reading 0.
REQUIRED = {
    "suite-default": (
        "cli.main", "suite.build_corpus", "suite.run_theorem_suite",
        "core.check_ring_axioms", "core.FiniteRing", "core.double_commutant_mask",
        "core.units_mask", "core.idempotents_mask", "core.nilpotents_mask",
        "constructions.direct_product", "constructions.corner_ring",
        "constructions.quotient_ring", "constructions.matrix_ring",
        "constructions.upper_triangular_ring", "constructions.hst_ring",
        "constructions.lst_ring", "constructions.ks_ring", "constructions.formal_triangular",
        "constructions.trivial_morita", "constructions.enumerate_unital_rings",
        "constructions.ring_isomorphic",
        "ideals.all_right_ideal_masks", "predicates.evaluate_predicate",
    ),
    "query-small": (
        "cli.main", "constructions.construct", "core.check_ring_axioms",
        "ideals.all_right_ideal_masks", "ideals.zhou_radical_mask",
        "ideals.jacobson_radical_mask", "ideals.socle_mask", "ideals.delta_sharp_mask",
        "ideals.r3_mask", "ideals.r5_mask", "ideals.r2_ideal_mask", "ideals.r4_ideal_mask",
        "ideals.radical_characterizations", "predicates.evaluate_predicate",
        "predicates.reversible", "predicates.j-reversible", "predicates.delta-reversible",
        "predicates.abelian", "predicates.reduced", "predicates.semisimple",
        "predicates.local", "predicates.delta-clean", "predicates.delta-quasipolar",
        "predicates.delta-linear-armendariz", "predicates.idempotents-lift-mod-delta",
        "predicates.corner-containment", "predicates.quotient-abelian",
        "predicates.quotient-reduced",
    ),
    "roundtrip-large": (
        "cli.main", "constructions.construct", "core.check_ring_axioms",
        "core.dumps_ring", "core.loads_ring", "ideals.zhou_radical_mask",
    ),
}
