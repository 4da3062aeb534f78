"""The benchmark's workloads: suite entries drawn from a seed, and the
verdict every check is expected to reach.

Each workload is a list of suite entries in the format of ``mfc suite``
files, run one after another through ``mfc.verify.run_entry``.  Only
``sweep-rank2`` draws its groups from the seed, and runs them in the
order of its strata; the others use the seed for the entry order alone.
Why each workload exists is in README.md.
"""

from __future__ import annotations

import random

ALL_CHECKS = ["counts", "orlik", "A", "B"]

# sweep-rank2: the default suite's rank <= 2 pool, stratified by family and
# by order band, one group in SWEEP_FRACTION from every stratum (at least
# one), so that every seed draws groups of the same sizes
SWEEP_BAND = 100
SWEEP_FRACTION = 10

ORLIK_RANK45 = ["F4", "G26", "A5", "D5", "B5", "G(3,1,4)", "B4", "G25", "H3"]

WALLS_RANK345 = ["A3", "B3", "H3", "G25", "G26", "G(3,1,3)", "A4", "B4", "D4",
                 "F4", "H4", "G(4,1,3)", "G(3,1,4)", "A5", "B5", "D5",
                 "G(5,1,3)"]
MONOMIAL_FIXTURES = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)]
JOIN_FIXTURES = ["2 + 2", "2[3]2 + 3", "2[3]2 + 2", "3 + 2[4]3",
                 "2[3]2[3]2 + 3", "3[3]3 + 2[3]2"]

# Expected status of a check, keyed by (report symbol, check); every check
# not listed must agree with the paper's predicates.  G26/B is the one
# genuine disagreement: the exhaustive Milnor-wall search finds no
# certificate for the walls of the order-3 reflections (README, "A note on
# G26"; the strict xfail test_criterion_5_g26_clause).
EXPECTED_STATUS = {("G26", "B"): "disagree"}


def expected_status(symbol: str, check: str) -> str:
    return EXPECTED_STATUS.get((symbol, check), "agree")


def _family(symbol: str) -> str:
    for prefix, fam in (("Z", "Z"), ("I2(", "I2"), ("G(", "G(m,1,2)")):
        if symbol.startswith(prefix):
            return fam
    return "exceptional"


def sweep_rank2(rng: random.Random) -> list[dict]:
    from mfc.diagram import group_order, parse_symbol
    from mfc.verify import default_suite

    strata: dict[tuple, list[str]] = {}
    for e in default_suite()["entries"]:
        if e.get("checks") != ALL_CHECKS:
            continue
        d = parse_symbol(e["symbol"])
        if d.rank > 2:
            continue
        band = (group_order(d) - 1) // SWEEP_BAND
        strata.setdefault((_family(e["symbol"]), band), []).append(e["symbol"])
    # in stratum order, not a seeded one: what runs before the slowest
    # group changes its time by about 10%, which would make entry_s_max
    # differ between seeds
    picked = []
    for key in sorted(strata):
        members = strata[key]
        k = max(1, round(len(members) / SWEEP_FRACTION))
        picked.extend(members[i]
                      for i in sorted(rng.sample(range(len(members)), k)))
    return [{"symbol": s, "checks": list(ALL_CHECKS)} for s in picked]


def _shuffled(rng: random.Random, entries: list[dict]) -> list[dict]:
    rng.shuffle(entries)
    return entries


def orlik_rank45(rng: random.Random) -> list[dict]:
    return _shuffled(rng, [{"symbol": s, "checks": ["orlik"]}
                           for s in ORLIK_RANK45])


def walls_rank345(rng: random.Random) -> list[dict]:
    return _shuffled(rng,
                     [{"symbol": s, "checks": ["A", "B"]} for s in WALLS_RANK345]
                     + [{"monomial": list(mn), "checks": ["monomial"]}
                        for mn in MONOMIAL_FIXTURES]
                     + [{"symbol": s, "checks": ["join"]} for s in JOIN_FIXTURES])


def deep_g32(rng: random.Random) -> list[dict]:
    return [{"symbol": "G32", "checks": ["counts", "A", "B"]}]


WORKLOADS = {
    "sweep-rank2": sweep_rank2,
    "orlik-rank45": orlik_rank45,
    "walls-rank345": walls_rank345,
    "deep-g32": deep_g32,
}


def make_entries(workload: str, seed: int) -> list[dict]:
    """The workload's entries for ``seed``, in the order they run."""
    return WORKLOADS[workload](random.Random(seed))
