"""Per-layer micro-runs: public roughalg functions on seeded inputs.

Each micro-run builds its inputs (untimed), makes one warm-up call, then
times SAMPLES batches of calls and reports the median rate with its unit
and sample count.  Inputs come from the same seed as the workload.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import statistics
import time

import workloads

SAMPLES = 5
MIN_SAMPLE_S = 0.02
# Constraint sets for the wasted-evaluation count (one or two laws each).
SEARCH_PROFILES = (("C1=AllTrue",), ("C4=AllFalse",), ("C5=AllTrue",), ("C3=AllTrue",),
                   ("C2=AllTrue",), ("C1=Mixed", "C3=AllFalse"))


def _time_batch(fn) -> float:
    """Seconds per call of fn, from calls repeated for at least MIN_SAMPLE_S."""
    reps, t0 = 0, time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_SAMPLE_S:
            return elapsed / reps


def _rate(fn, units: int) -> dict:
    fn()  # warm-up
    per_call = statistics.median(_time_batch(fn) for _ in range(SAMPLES))
    return {"value": units / per_call, "unit": "1/s", "samples": SAMPLES}


def _ms(fn) -> dict:
    fn()
    per_call = statistics.median(_time_batch(fn) for _ in range(SAMPLES))
    return {"value": per_call * 1e3, "unit": "ms", "samples": SAMPLES}


def _random_space(ra, rng: random.Random, universe):
    n = universe.size
    blocks = workloads.random_blocks(rng, n)
    masks: dict[int, int] = {}
    for i, b in enumerate(blocks):
        masks[b] = masks.get(b, 0) | (1 << i)
    return ra.make_space(universe, [ra.Subset(universe, m) for m in masks.values()])


def _random_table(ra, rng: random.Random, universe, k: int, p_indet: float):
    carrier = ra.Subset.from_indices(universe, sorted(rng.sample(range(universe.size), k)))
    cells = tuple(None if rng.random() < p_indet else rng.randrange(universe.size)
                  for _ in range(k * k))
    return ra.OpTable.build(universe, carrier, cells)


def _subset(ra, rng: random.Random, universe, nonempty: bool = False):
    full = (1 << universe.size) - 1
    m = rng.randint(1 if nonempty else 0, full)
    return ra.Subset(universe, m)


def run(seed: int) -> dict:
    import roughalg as ra
    from roughalg import cli, enumeration

    rng = random.Random(f"micro:{seed}")
    out: dict[str, dict] = {}

    # scenario: declarations parsed per second over the size-class corpus
    texts = [workloads.random_scenario(rng, n, k)[1] for n, k in workloads.SIZE_CLASSES]
    decls = sum(line.split(" ", 1)[0] in ("universe", "partition", "set", "table", "map")
                for text in texts for line in text.splitlines())
    out["scenario.parse_decls_per_s"] = _rate(lambda: [ra.parse_scenario(t) for t in texts], decls)

    out["cli.build_parser_ms"] = _ms(cli.build_parser)

    # approx at n = 6
    u6 = ra.make_universe([str(i) for i in range(1, 7)])
    spaces6 = [_random_space(ra, rng, u6) for _ in range(20)]
    pairs = [(rng.choice(spaces6), _subset(ra, rng, u6)) for _ in range(500)]
    out["approx.approximate_per_s"] = _rate(
        lambda: [ra.approximate(s, x) for s, x in pairs], len(pairs))
    quads = [(rng.choice(spaces6), law, _subset(ra, rng, u6), _subset(ra, rng, u6))
             for law in ra.APPROX_LAWS for _ in range(50)]
    out["approx.check_approx_law_per_s"] = _rate(
        lambda: [ra.check_approx_law(s, law, x, y) for s, law, x, y in quads], len(quads))

    # algebra: k = 3 tables for evaluate_law, k >= 16 for classify
    u4 = ra.make_universe([str(i) for i in range(1, 5)])
    small = [_random_table(ra, rng, u4, 3, 0.1) for _ in range(200)]
    for law in ra.TABLE_LAWS:
        out[f"algebra.evaluate_law_per_s.{law}"] = _rate(
            lambda law=law: [ra.evaluate_law(t, law) for t in small], len(small))
    u24 = ra.make_universe([f"e{i}" for i in range(24)])
    big = [_random_table(ra, rng, u24, k, 0.1) for k in (16, 18, 20)]
    out["algebra.classify_per_s"] = _rate(lambda: [ra.classify(t) for t in big], len(big))

    full4 = ra.Subset.full(u4)
    total4 = [ra.OpTable.build(u4, full4, tuple(rng.randrange(4) for _ in range(16)))
              for _ in range(40)]
    prods = [(rng.choice(total4), _subset(ra, rng, u4), _subset(ra, rng, u4)) for _ in range(300)]
    out["algebra.set_product_per_s"] = _rate(
        lambda: [ra.set_product(t, a, b) for t, a, b in prods], len(prods))
    spaces4 = [_random_space(ra, rng, u4) for _ in range(10)]
    congs = [(rng.choice(spaces4), rng.choice(total4)) for _ in range(100)]
    out["algebra.is_congruence_per_s"] = _rate(
        lambda: [ra.is_congruence(s, t) for s, t in congs], len(congs))
    u3 = ra.make_universe(["1", "2", "3"])
    full3 = ra.Subset.full(u3)
    spaces3 = list(ra.enum_spaces(3, u3))
    p22 = [(rng.choice(spaces3),
            ra.OpTable.build(u3, full3, tuple(rng.randrange(3) for _ in range(9))),
            _subset(ra, rng, u3, True), _subset(ra, rng, u3, True)) for _ in range(100)]
    out["algebra.check_product_approx_per_s"] = _rate(
        lambda: [ra.check_product_approx_laws(s, t, x, y) for s, t, x, y in p22], len(p22))

    # rough structures and morphisms on generated scenarios (n = 12, k = 9)
    scen = [ra.parse_scenario(workloads.random_scenario(rng, 12, 9)[1]) for _ in range(5)]
    sp = [(ra.space_from_partition(s.partitions["P0"].partition),
           ra.space_from_partition(s.partitions["P1"].partition), s.tables["T0"].table,
           s.tables["T1"].table, s.mappings["M"].mapping, s.mappings["R"].mapping) for s in scen]
    out["rough_structures.check_rough_anti_semigroup_per_s"] = _rate(
        lambda: [ra.check_rough_anti_semigroup(p0, t0, t1) for p0, _, t0, t1, _, _ in sp], len(sp))
    out["morphisms.check_hom_per_s.hom"] = _rate(
        lambda: [ra.check_hom(m, t0, t1) for _, _, t0, t1, m, _ in sp], len(sp))
    out["morphisms.check_hom_per_s.anti-hom"] = _rate(
        lambda: [ra.check_anti_group_hom(m, t0, t1) for _, _, t0, t1, m, _ in sp], len(sp))
    for kind in ("rough-hom", "rough-anti-hom"):
        out[f"morphisms.check_hom_per_s.{kind}"] = _rate(
            lambda kind=kind: [ra.check_rough_hom(p0, p1, r, t0, t1, kind)
                               for p0, p1, t0, t1, _, r in sp], len(sp))
    comp_tables = [ra.OpTable.build(u3, full3, tuple(rng.randrange(3) for _ in range(9)))
                   for _ in range(2)]
    maps = list(ra.enum_mappings(full3, full3))
    comp_pairs = [(a, b) for a in maps for b in maps]
    out["morphisms.composition_pairs_per_s"] = _rate(
        lambda: [ra.verify_composition_props(t, comp_pairs, "p41") for t in comp_tables],
        len(comp_pairs) * len(comp_tables))

    # enumeration streams
    out["enumeration.partitions_per_s"] = _rate(lambda: list(ra.enum_partitions(6)), 203)
    carrier43 = ra.Subset.from_indices(u4, (0, 1, 2))
    out["enumeration.tables_per_s"] = _rate(
        lambda: list(itertools.islice(ra.enum_tables(u4, carrier43), 2000)), 2000)
    u5 = ra.make_universe([str(i) for i in range(1, 6)])
    dom = ra.Subset.from_indices(u5, (0, 1, 2, 3))
    out["enumeration.mappings_per_s"] = _rate(lambda: list(ra.enum_mappings(dom, dom)), 256)

    # wasted law evaluations: evaluate_law calls per distinct (carrier, table)
    profile = tuple(tuple(r.split("=")) for r in rng.choice(SEARCH_PROFILES))
    spec = ra.SearchSpec(3, 2, law_constraints=profile, limit=workloads.FULL, budget=workloads.FULL)
    original = enumeration.evaluate_law
    calls = [0]

    def counting(table, law):
        calls[0] += 1
        return original(table, law)

    enumeration.evaluate_law = counting
    try:
        outcome = ra.search(spec)
    finally:
        enumeration.evaluate_law = original
    per_space = 3 * 3 ** 4  # carriers x tables for n = 3, k = 2
    distinct = min(outcome.examined, per_space)
    out["enumeration.law_evals_per_distinct_table"] = {
        "value": calls[0] / distinct, "unit": "ratio", "samples": 1,
        "base": f"{calls[0]} evaluate_law calls / {distinct} distinct tables"}

    # the process pool: one command at --jobs 1 and --jobs 2, alternating
    argv = ["search", "--universe-size", "3", "--carrier-size", "3", "--limit", "1000000",
            "--budget", "19683"]
    for req in workloads.PARALLEL_SCAN:
        argv += ["--require", req]
    walls: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(3):
        for jobs in (1, 2):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                cli.main(["--jobs", str(jobs)] + argv)
            walls[jobs].append(time.perf_counter() - t0)
    w1, w2 = statistics.median(walls[1]), statistics.median(walls[2])
    out["parallel.speedup"] = {"value": w1 / w2, "unit": "ratio", "samples": 3}
    out["parallel.overhead_s"] = {"value": w2 - w1 / 2, "unit": "s", "samples": 3}

    out["fixtures.audit_paper_ms"] = _ms(ra.audit_paper)
    return out

