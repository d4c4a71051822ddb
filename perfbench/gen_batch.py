#!/usr/bin/env python3
"""Seeded request-batch generator for the serve_cold and serve_warm workloads.

    python3 perfbench/gen_batch.py --seed 7 > batch.jsonl

The same seed always gives the same bytes (the self-tests pin a digest), and
the daemon receives only these lines. Every line is wire-legal
(docs/SERVING.md), so no request is expected to answer an error.

The batch has a fixed layout: which kind of query sits at which line, on
which design and size, with which injector, engine, run budget and draw
contract, is the same for every seed (LAYOUT_SEED). So a batch costs the
same work whatever the seed, and run-to-run spread measures the daemon, not
the luck of the draw. The seed draws each query's Monte-Carlo `seed` and
moves its fault parameter within a narrow band around the layout's value.

Mix properties (exact line counts, as shares of the batch) and why each is
in the batch:

* EXACT_REPEAT_SHARE - lines that repeat an earlier query field for field
  (only the id differs). The session cache answers them, so this share sets
  how much of a cold pass is cache hits rather than Monte-Carlo work.
* ENGINE_RESPELL_SHARE - repeats that differ only in the `engine` spelling.
  Structural estimates do not depend on the engine, but the cache key
  includes it today, so these compute again; an engine-free key would turn
  them into hits.
* V2_SHARE - structural queries on the v2 draw contract (counter streams,
  skip-sampled injection) next to v1, so both injection paths are timed.
* ADAPTIVE_SHARE - queries with `target_ci_half_width`: they stop at chunk
  boundaries, so their run count depends on the estimate; variance
  reduction would shorten them.
* ASSAY_SHARE - operational queries on the multiplexed chip. A run costs
  about 100x a structural run, so a few of them set the tail latency.
* DESIGNS x SIZES - four redundancy designs at three sizes, twelve
  sessions, dealt out evenly, so the daemon holds several designs at once.
* INJECTORS and ENGINES - every wire-legal fault kind (bernoulli,
  fixed_count, clustered, parametric; mixtures are spec-file only) and
  every engine spelling, in fixed proportions.
"""

import argparse
import random
import sys

LINES = 320
LAYOUT_SEED = 0x5EED0B
EXACT_REPEAT_SHARE = 0.20
ENGINE_RESPELL_SHARE = 0.10
ASSAY_SHARE = 0.03
V2_SHARE = 0.25
ADAPTIVE_SHARE = 0.07

DESIGNS = ("dtmb1_6", "dtmb2_6", "dtmb3_6", "dtmb4_4")
SIZES = (60, 120, 240)
INJECTORS = (("bernoulli", 0.50), ("fixed_count", 0.20),
             ("clustered", 0.15), ("parametric", 0.15))
ENGINES = (("hopcroft_karp", 0.50), ("auto", 0.30), ("push_relabel", 0.10),
           ("kuhn", 0.05), ("dinic", 0.05))
RUNS = (500, 1000, 2000)

# The first line is a small query: its answer ends the set-up interval
# (spawn to first answer), so it should cost little beyond the set-up.
FIRST = {"design": "dtmb2_6", "primaries": 60, "injector": "bernoulli",
         "param": 0.95, "runs": 500, "seed": 1}

KEY_ORDER = ("design", "primaries", "workload", "injector", "param",
             "radius", "core_kill", "edge_kill", "runs", "seed", "policy",
             "engine", "pool", "rng_version", "target_ci_half_width")


def _dealt(layout, weighted, count):
    """`count` values in the given proportions, in shuffled order."""
    values = []
    for value, weight in weighted:
        values += [value] * round(weight * count)
    while len(values) < count:
        values.append(weighted[0][0])
    values = values[:count]
    layout.shuffle(values)
    return values


def _layout():
    """The seed-independent slots: a template per fresh query, or the index
    of the earlier line a repeat copies (with a respelled engine or not)."""
    layout = random.Random(LAYOUT_SEED)
    counts = {"exact": round(LINES * EXACT_REPEAT_SHARE),
              "respell": round(LINES * ENGINE_RESPELL_SHARE),
              "assay": round(LINES * ASSAY_SHARE)}
    structural = LINES - 1 - sum(counts.values())
    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    kinds += ["structural"] * structural
    layout.shuffle(kinds)

    cells = [(d, s) for d in DESIGNS for s in SIZES]
    placements = [cells[i % len(cells)] for i in range(structural)]
    layout.shuffle(placements)
    injectors = _dealt(layout, INJECTORS, structural)
    engines = _dealt(layout, ENGINES, structural)
    v2 = _dealt(layout, ((True, V2_SHARE), (False, 1 - V2_SHARE)), structural)
    adaptive_count = round(LINES * ADAPTIVE_SHARE)
    adaptive = _dealt(layout, ((True, adaptive_count / structural),
                               (False, 1 - adaptive_count / structural)),
                      structural)

    slots = [dict(FIRST)]
    for kind in kinds:
        if kind == "exact":
            slots.append(("repeat", layout.randrange(len(slots)), None))
            continue
        if kind == "respell":
            source = layout.choice([i for i, slot in enumerate(slots)
                                    if isinstance(slot, dict)
                                    and slot.get("workload") != "assay"])
            current = slots[source].get("engine", "hopcroft_karp")
            engine = layout.choice([e for e, _ in ENGINES if e != current])
            slots.append(("repeat", source, engine))
            continue
        if kind == "assay":
            slots.append({"design": "multiplexed", "workload": "assay",
                          "injector": "fixed_count",
                          "param": layout.randrange(0, 41),
                          "runs": layout.choice((100, 150, 200)),
                          "policy": "used_faulty_primaries",
                          "pool": layout.choice(
                              ("spares_only", "spares_and_unused_primaries"))})
            continue
        design, size = placements.pop()
        query = {"design": design, "primaries": size,
                 "injector": injectors.pop()}
        if query["injector"] == "bernoulli":
            query["param"] = round(layout.uniform(0.90, 0.995), 3)
        elif query["injector"] == "fixed_count":
            query["param"] = layout.randrange(2, 21)
        elif query["injector"] == "clustered":
            query["param"] = round(layout.uniform(0.5, 3.0), 2)
            query["radius"] = layout.choice((1, 2))
            query["core_kill"] = 0.9
            query["edge_kill"] = 0.3
        else:
            query["param"] = round(layout.uniform(0.5, 1.0), 2)
        query["runs"] = layout.choice(RUNS)
        query["engine"] = engines.pop()
        if v2.pop():
            query["rng_version"] = "v2"
        if adaptive.pop():
            query["runs"] = 10000
            query["target_ci_half_width"] = layout.choice((0.015, 0.025))
        slots.append(query)
    return slots


def _drawn(template, rng):
    """A fresh query from its template: the seed draws the Monte-Carlo seed
    and moves the fault parameter within a narrow band."""
    query = dict(template)
    query["seed"] = rng.randrange(1, 2**32)
    param = query["param"]
    if query["injector"] == "bernoulli":
        query["param"] = round(param + rng.uniform(-0.002, 0.002), 4)
    elif query["injector"] == "fixed_count":
        query["param"] = max(1 if param else 0, param + rng.choice((-1, 0, 1)))
    else:
        query["param"] = round(param * rng.uniform(0.98, 1.02), 3)
    return query


def _render(line_id, query):
    fields = [f'"id": {line_id}']
    for key in KEY_ORDER:
        if key in query:
            value = query[key]
            text = f'"{value}"' if isinstance(value, str) else repr(value)
            fields.append(f'"{key}": {text}')
    return "{" + ", ".join(fields) + "}"


def generate(seed):
    """The batch for `seed` as a list of request lines (no newlines)."""
    rng = random.Random(seed)
    queries = []
    for slot in _layout():
        if isinstance(slot, dict):
            queries.append(slot if not queries else _drawn(slot, rng))
        else:
            _, source, engine = slot
            query = dict(queries[source])
            if engine is not None:
                query["engine"] = engine
            queries.append(query)
    return [_render(index + 1, query) for index, query in enumerate(queries)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.stdout.write("".join(line + "\n"
                             for line in generate(args.seed)))


if __name__ == "__main__":
    main()
