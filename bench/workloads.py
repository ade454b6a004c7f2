"""Seeded inputs for the four workloads.

Every workload is a closed loop with one client: a *pass* is a fixed list of
CLI commands that the client runs one after another, and a run repeats the
pass until its time is used.  The seed picks the commands of the pass (and,
for scenario-batch, writes the `.ras` corpus); the program only ever sees
the generated files and argv.

The seed varies *what* is run, not *how much*: profiles are drawn from pools
whose members cost about the same, and the corpus has fixed size classes.
That keeps run-to-run spread across seeds small enough to compare commits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("laws-sweep", "search-scan", "parallel-sweep", "scenario-batch")

LAW_SUITES = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "P22", "P31", "P41", "P42")
TABLE_LAWS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10")
FULL = 1_000_000  # a --limit/--budget above every scan's total

# Full n=3, k=3 scans (98,415 candidates each), grouped by hit count.  Members
# of one band took within 12% of each other's time on the reference machine,
# so the seed changes the hits but hardly the cost of a pass.
FEW_HITS = (("C4=AllFalse", "C5=AllTrue"), ("C3=AllTrue", "C2=AllTrue"),
            ("C9=AllTrue", "C3=AllTrue"))          # 50, 280 and 10 hits
SOME_HITS = (("C4=AllTrue",), ("C3=AllFalse", "C10=AllTrue"))  # 6,835 and 8,640 hits
MANY_HITS = ("C4=AllFalse",)  # 19,310 hits, about 20% of candidates
# Budgeted n=4, k=3 scans (first 30,000 of 15.7M candidates).
N4_BUDGET = 30_000
N4_PROFILES = (("C4=AllFalse",), ("C3=AllTrue", "C2=AllTrue"), ("C5=AllTrue",))
# The small full scan riding along in laws-sweep (n=3, k=2: 1,215 candidates).
RIDER_SCAN = ("C4=AllFalse",)
# limit-1 searches whose hit comes early in the canonical order.
EARLY_HIT_N4 = ("C1=AllTrue", "C4=AllFalse")  # hit at index 66,560
EARLY_HIT_N4_BUDGET = 100_000  # the CLI default
EARLY_HIT_N3 = ("C4=AllFalse",)  # hit at index 6,804
PARALLEL_SCAN = SOME_HITS[1]
PARALLEL_SUITES = ("L4", "L5")
# laws-sweep runs --max-n 4 (4,196 instances per L-suite, about 1 s for all 13
# suites) rather than 5 (57,444, about 11 s), so a run repeats the pass about
# twenty times and its medians average over the whole run.  On a 2-core box
# whose speed drifts by tens of percent over seconds, one 11-s pass was too
# noisy a sample.
LAWS_MAX_N = 4

# scenario-batch size classes: (universe size, carrier size).
SIZE_CLASSES = ((4, 3), (8, 6), (12, 9), (16, 12), (24, 18), (32, 24))


@dataclass
class Command:
    argv: list[str]
    # Key into goldens.json for commands whose arguments are fixed; None for
    # commands on generated files, which the oracle checks instead.
    golden: str | None = None
    # For scenario commands: (file index, what to check).
    check: tuple | None = None
    # A small command that exists so every rate is defined on every workload;
    # it counts toward the rates and wall_s but not the latency percentiles.
    ride_along: bool = False


@dataclass
class Workload:
    name: str
    commands: list[Command]
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text
    models: list = field(default_factory=list)          # scenario models, by file index
    properties: dict = field(default_factory=dict)


def golden_key(argv: list[str]) -> str:
    """argv without --jobs: the output must not depend on the worker count."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == "--jobs":
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def _flags(as_json: bool, jobs: int) -> list[str]:
    return (["--json"] if as_json else []) + ["--jobs", str(jobs)]


def laws_cmd(law: str, max_n: int, as_json: bool, jobs: int = 1) -> Command:
    argv = _flags(as_json, jobs) + ["laws", "--max-n", str(max_n), "--law", law]
    return Command(argv, golden_key(argv))


def search_cmd(n: int, k: int, profile, as_json: bool, jobs: int = 1,
               limit: int = FULL, budget: int = FULL) -> Command:
    argv = _flags(as_json, jobs) + ["search", "--universe-size", str(n), "--carrier-size", str(k)]
    for req in profile:
        argv += ["--require", req]
    argv += ["--limit", str(limit), "--budget", str(budget)]
    return Command(argv, golden_key(argv))


def audit_cmd(as_json: bool) -> Command:
    argv = _flags(as_json, 1) + ["audit-paper"]
    return Command(argv, golden_key(argv))


def fixed_commands() -> list[Command]:
    """Every fixed-argument command any seed can produce (for goldens.json)."""
    cmds = []
    for j in (False, True):
        cmds += [laws_cmd(law, LAWS_MAX_N, j) for law in LAW_SUITES]
        cmds += [laws_cmd(law, 5, j) for law in PARALLEL_SUITES]
        cmds.append(laws_cmd("P42", 2, j))
        cmds += [search_cmd(3, 3, p, j) for p in FEW_HITS + SOME_HITS + (MANY_HITS,)]
        cmds += [search_cmd(4, 3, p, j, budget=N4_BUDGET) for p in N4_PROFILES]
        cmds.append(search_cmd(3, 2, RIDER_SCAN, j))
        cmds.append(search_cmd(4, 3, EARLY_HIT_N4, j, limit=1, budget=EARLY_HIT_N4_BUDGET))
        cmds.append(search_cmd(3, 3, EARLY_HIT_N3, j, limit=1))
        cmds.append(search_cmd(2, 2, ("C4=AllFalse",), j, limit=1))
        cmds.append(audit_cmd(j))
    return cmds


def _interleave(main: list[Command], riders: list[Command]) -> list[Command]:
    """Spread ride-along commands evenly through the pass, so they sample the whole run."""
    for c in riders:
        c.ride_along = True
    out, step, ri = [], len(main) / len(riders), 0
    for i, c in enumerate(main, 1):
        out.append(c)
        while ri < len(riders) and (ri + 1) * step <= i:
            out.append(riders[ri])
            ri += 1
    return out + riders[ri:]


# workloads


def laws_sweep(rng: random.Random) -> Workload:
    """All 13 suites at --max-n 4 and --jobs 1; approx dominates.

    Two small n=3, k=2 scans ride along so candidates_per_s exists here too;
    they take about 5% of the pass.
    """
    suites = list(LAW_SUITES)
    rng.shuffle(suites)
    as_json = set(rng.sample(suites, len(suites) // 2))
    riders = [search_cmd(3, 2, RIDER_SCAN, as_json) for as_json in (False, True)]
    cmds = _interleave([laws_cmd(law, LAWS_MAX_N, law in as_json) for law in suites], riders)
    return Workload("laws-sweep", cmds,
                    properties={"suites": suites, "max_n": LAWS_MAX_N, "jobs": 1})


def search_scan(rng: random.Random) -> Workload:
    """Full n=3, k=3 scans over three hit-rate bands plus one budgeted n=4 scan.

    The scans with more hits render as --json, so hit rendering is measured.
    P41 and P42 (no approx, no search) ride along so instances_per_s exists
    here; they take about 3% of the pass.
    """
    scans = [
        search_cmd(3, 3, rng.choice(FEW_HITS), as_json=False),
        search_cmd(3, 3, rng.choice(SOME_HITS), as_json=True),
        search_cmd(3, 3, MANY_HITS, as_json=True),
        search_cmd(4, 3, rng.choice(N4_PROFILES), as_json=False, budget=N4_BUDGET),
    ]
    rng.shuffle(scans)
    riders = [laws_cmd(law, LAWS_MAX_N, as_json) for as_json in (False, True)
              for law in ("P41", "P42")]
    return Workload("search-scan", _interleave(scans, riders * 3), properties={"jobs": 1})


def parallel_sweep(rng: random.Random) -> Workload:
    """Two laws suites, a full scan and two early-hit limit-1 searches at --jobs 2.

    These are the commands ROADMAP measured at --jobs 1 and 2.  Their cost
    is fixed; the seed picks the order and the format of the small outputs.
    Output must be byte-identical to --jobs 1, so the goldens are shared.
    """
    cmds = [
        *(laws_cmd(law, 5, rng.random() < 0.5, jobs=2) for law in PARALLEL_SUITES),
        search_cmd(3, 3, PARALLEL_SCAN, as_json=True, jobs=2),
        search_cmd(4, 3, EARLY_HIT_N4, as_json=rng.random() < 0.5, jobs=2, limit=1,
                   budget=EARLY_HIT_N4_BUDGET),
        search_cmd(3, 3, EARLY_HIT_N3, as_json=rng.random() < 0.5, jobs=2, limit=1),
    ]
    rng.shuffle(cmds)
    return Workload("parallel-sweep", cmds, properties={"jobs": 2})


# scenario-batch corpus


@dataclass
class TableModel:
    carrier: list[int]            # universe indices, declaration order = universe order
    cells: list[int | None]       # row-major over the carrier; None is '?'


@dataclass
class ScenarioModel:
    """What the generator wrote, kept for the oracle."""
    labels: list[str]
    partitions: dict[str, list[int]]   # name -> block id per universe index
    sets: dict[str, list[int]]         # name -> sorted universe indices
    tables: dict[str, TableModel]


def random_blocks(rng: random.Random, n: int) -> list[int]:
    nblocks = rng.randint(max(1, n // 4), max(1, (2 * n) // 3))
    raw = [rng.randrange(nblocks) for _ in range(n)]
    ids: dict[int, int] = {}
    return [ids.setdefault(b, len(ids)) for b in raw]


def upper(blocks: list[int], members: list[int]) -> list[int]:
    """Indices whose block meets members (blocks: block id per index)."""
    hit = {blocks[i] for i in members}
    return [i for i in range(len(blocks)) if blocks[i] in hit]


def lower(blocks: list[int], members: list[int]) -> list[int]:
    """Indices whose whole block lies inside members."""
    inside = set(members)
    return [i for i in range(len(blocks))
            if all(j in inside for j in range(len(blocks)) if blocks[j] == blocks[i])]


def _random_table(rng: random.Random, n: int, carrier: list[int],
                  p_indet: float, p_out: float) -> TableModel:
    outside = [i for i in range(n) if i not in set(carrier)]
    cells: list[int | None] = []
    for _ in range(len(carrier) ** 2):
        r = rng.random()
        if r < p_indet:
            cells.append(None)
        elif r < p_indet + p_out and outside:
            cells.append(rng.choice(outside))
        else:
            cells.append(rng.choice(carrier))
    return TableModel(carrier, cells)


def _write_ras(m: ScenarioModel, maps: dict[str, tuple[str, str, list[tuple[int, int]]]]) -> str:
    lab = m.labels
    out = [f"universe U = {{ {' '.join(lab)} }}"]
    for name, blocks in m.partitions.items():
        groups: dict[int, list[str]] = {}
        for i, b in enumerate(blocks):
            groups.setdefault(b, []).append(lab[i])
        body = " ".join("{ " + " ".join(g) + " }" for g in groups.values())
        out.append(f"partition {name} on U = {{ {body} }}")
    for name, members in m.sets.items():
        out.append(f"set {name} on U = {{ {' '.join(lab[i] for i in members)} }}")
    for name, t in m.tables.items():
        k = len(t.carrier)
        out.append(f"table {name} on U carrier {{ {' '.join(lab[i] for i in t.carrier)} }} = {{")
        for r, row_el in enumerate(t.carrier):
            cells = " ".join("?" if v is None else lab[v] for v in t.cells[r * k:(r + 1) * k])
            out.append(f"  {lab[row_el]} : {cells}")
        out.append("}")
    for name, (src, dst, pairs) in maps.items():
        out.append(f"map {name} from {src} to {dst} = {{ "
                   + " ".join(f"{lab[a]} -> {lab[b]}" for a, b in pairs) + " }")
    return "\n".join(out) + "\n"


def random_scenario(rng: random.Random, n: int, k: int) -> tuple[ScenarioModel, str, dict]:
    labels = [f"{rng.choice('abcdxyz')}{i}" for i in range(1, n + 1)]
    p_indet = rng.uniform(0.0, 0.3)
    p_out = rng.uniform(0.0, 0.4)
    parts = {"P0": random_blocks(rng, n), "P1": random_blocks(rng, n)}
    c0 = sorted(rng.sample(range(n), k))
    c1 = sorted(rng.sample(range(n), k))
    tables = {"T0": _random_table(rng, n, c0, p_indet, p_out),
              "T1": _random_table(rng, n, c1, p_indet, p_out)}
    ua, ub = upper(parts["P0"], c0), upper(parts["P1"], c1)
    sets = {
        "A": sorted(rng.sample(range(n), rng.randint(1, n))),
        "B": sorted(rng.sample(range(n), rng.randint(1, n))),
        "H": sorted(rng.sample(c0, rng.randint(1, k))),
        "S0": c0, "S1": c1, "UA": ua, "UB": ub,
    }
    model = ScenarioModel(labels, parts, sets, tables)
    # M: carrier of T0 into carrier of T1 (hom / anti-hom); R: upper onto upper
    # (rough kinds), surjective whenever the sizes allow it.
    m_pairs = [(a, rng.choice(c1)) for a in c0]
    images = rng.sample(ub, len(ub)) if len(ua) >= len(ub) else []
    r_pairs = [(a, images[i] if i < len(images) else rng.choice(ub)) for i, a in enumerate(ua)]
    maps = {"M": ("S0", "S1", m_pairs), "R": ("UA", "UB", r_pairs)}
    text = _write_ras(model, maps)
    cells = tables["T0"].cells + tables["T1"].cells
    props = {
        "universe": n,
        "carrier": k,
        "indet_share": sum(v is None for v in cells) / len(cells),
        "outside_share": sum(v is not None and v not in set(t.carrier)
                             for t in tables.values() for v in t.cells) / len(cells),
        "rough_carriers": [lower(parts[p], c) != c for p, c in (("P0", c0), ("P1", c1))],
    }
    return model, text, props


def scenario_batch(rng: random.Random) -> Workload:
    """Per-command work on a seeded .ras corpus, in text and --json.

    Four P42 sweeps and four tiny searches ride along so that
    instances_per_s and candidates_per_s exist here too; enumeration stays
    nearly idle.
    """
    wl = Workload("scenario-batch", [])
    corpus = []
    for idx, (n, k) in enumerate(SIZE_CLASSES):
        model, text, props = random_scenario(rng, n, k)
        path = f"s{idx}.ras"
        wl.files[path] = text
        wl.models.append(model)
        corpus.append(props)
        per_file = [
            (["parse", path], ("parse",)),
            (["approx", path, "--space", "P0", "--set", "A"], ("approx", "P0", "A")),
            (["approx", path, "--space", "P1", "--set", "B"], ("approx", "P1", "B")),
            (["classify", path, "--table", "T0"], ("classify", "T0")),
            (["classify", path, "--table", "T1"], ("classify", "T1")),
            (["check", "rough-semigroup", path, "--space", "P0", "--table", "T0",
              "--ambient", "T1"], ("check",)),
            (["check", "rough-subsemigroup", path, "--space", "P0", "--table", "T0",
              "--subset", "H"], ("check",)),
            (["check", "morphism", path, "--map", "M", "--kind", "hom",
              "--table-a", "T0", "--table-b", "T1"], ("check",)),
            (["check", "morphism", path, "--map", "M", "--kind", "anti-hom",
              "--table-a", "T0", "--table-b", "T1"], ("check",)),
            (["check", "morphism", path, "--map", "R", "--kind", "rough-hom",
              "--table-a", "T0", "--table-b", "T1", "--space-a", "P0", "--space-b", "P1"],
             ("check",)),
            (["check", "morphism", path, "--map", "R", "--kind", "rough-anti-hom",
              "--table-a", "T0", "--table-b", "T1", "--space-a", "P0", "--space-b", "P1"],
             ("check",)),
        ]
        for argv, what in per_file:
            for as_json in (False, True):
                wl.commands.append(Command(_flags(as_json, 1) + argv, None, (idx,) + what))
    wl.commands += [audit_cmd(False), audit_cmd(True)]
    rng.shuffle(wl.commands)
    riders = [c for as_json in (False, True, False, True)
              for c in (laws_cmd("P42", 2, as_json),
                        search_cmd(2, 2, ("C4=AllFalse",), as_json, limit=1))]
    wl.commands = _interleave(wl.commands, riders)
    rough = [r for props in corpus for r in props["rough_carriers"]]
    wl.properties = {"corpus": corpus, "rough_carrier_share": sum(rough) / len(rough), "jobs": 1}
    return wl


BUILDERS = {
    "laws-sweep": laws_sweep,
    "search-scan": search_scan,
    "parallel-sweep": parallel_sweep,
    "scenario-batch": scenario_batch,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
