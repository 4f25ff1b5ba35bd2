"""Arithmetic and known-answer gates of the melb end-to-end benchmark.

Pure functions over the JSON-line records that melb_perfbench prints (see
driver.cpp) and the spans it writes; run.py does the building, spawning and
printing. test_analysis.py tests everything here without a build.
"""

import math

MIB = 1024.0 * 1024.0
DEFAULT_SEED = 2026

# Why each workload is in the benchmark, and the sizes measured on it.
WORKLOADS = {
    "ya4-hash": {
        "seeded": False,
        "why": "One large space in hash mode with 4 workers: delta memo/intern, "
               "fingerprint and visited-table probe, sequencing, edge store and "
               "exp::TaskPool dominate; where making --workers pay must show.",
        "sizes": "5,892,305 states, 18,261,736 transitions, 13,527,208 dedup hits; "
                 "rmr-bound converges in 6 sweeps",
    },
    "ya4-sym-ddd": {
        "seeded": False,
        "why": "The same check under symmetry, DDD and an 8 MiB budget: orbit "
               "canonicalization, run sort-merge and spill I/O replace the big hash "
               "table, so a hash-mode gain that costs memory or DDD speed shows here.",
        "sizes": "737,175 states, 2,285,030 transitions, group of 8, 93 DDD runs, "
                 "~18.8 MiB spilled",
    },
    "sweep-lb": {
        "seeded": True,
        "why": "Never touches the checker: sim::run_canonical, cost models, "
               "trace::compute_stats and the lb construct/encode/decode pipeline "
               "per cell on the campaign pool, journal writes, then a resume.",
        "sizes": "14 algorithms x 8 schedulers x n=2..16 = 1,680 cells, 1,080 lb "
                 "round trips, 53 journal segments",
    },
    "zoo-n3": {
        "seeded": False,
        "why": "The only workload on adv and the property finish passes: small "
               "spaces, so the rmr-bound and adversary longest-path fixpoints on "
               "unbounded algorithms and per-call fixed costs take the time.",
        "sizes": "12 algorithms, 350 to 59,217 states each; dijkstra's fixpoints "
                 "take most of the time",
    },
}

# Known answers. Exploration counts do not depend on the property list.
YA4_HASH = {"states": 5892305, "transitions": 18261736, "dedup_hits": 13527208}
YA4_SYM_DDD = {"states": 737175, "transitions": 2285030, "dedup_hits": 1692694,
               "symmetry_group": 8}
YA4_BOUND = 20
ZOO_BOUNDS = {"yang-anderson": 20, "bakery": 10, "lamport-fast": 27,
              "ttas-rmw": 6, "ticket-rmw": 2, "mcs-rmw": 5}
ZOO_UNBOUNDED = {"peterson-tree", "filter", "dijkstra", "burns", "dekker-tree",
                 "kessels-tree"}
SWEEP_CELLS = 1680
SWEEP_LB_ROUND_TRIPS = 1080
SWEEP_SC_TOTAL_AT_DEFAULT_SEED = 696291

# Units of the per-workload metrics run.py prints: the end-to-end set plus
# three that BENCHMARK.json does not carry: error_rate and engine_peak_mib
# read 0 on correct code or on some workloads, cell_p50_ms is too unsteady
# (end_to_end).
UNITS = {
    "setup_s": "s", "wall_s": "s", "states_per_s": "1/s", "cells_per_s": "1/s",
    "cell_p50_ms": "ms", "cell_p99_ms": "ms", "peak_rss_mib": "MiB",
    "engine_peak_mib": "MiB", "error_rate": "ratio",
}

# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, p):
    """Nearest-rank p-th percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values, beyond=10):
    """The highest percentile with at least `beyond` samples above its rank.

    Returns (p, value, samples_beyond), or None when even the median has
    fewer than `beyond` samples past it."""
    n = len(values)
    for p in TAIL_CANDIDATES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= beyond:
            return p, percentile(values, p), n - rank
    return None


def utilization(busy_s, wall_s, workers):
    """Busy time over available time: cpu_util (CPU-seconds of a check) and
    pool_util (sum of cell walls of a sweep) both divide by wall x workers."""
    if wall_s <= 0 or workers < 1:
        return 0.0
    return busy_s / (wall_s * workers)


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------


def self_times_ns(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (overlapping children count once)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        kids = sorted(children.get(span["id"], []), key=lambda s: s["start_ns"])
        for kid in kids:
            lo = max(kid["start_ns"], cursor)
            hi = min(kid["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def self_seconds_by_name(spans, run):
    """Summed self time, in seconds, of the spans of one run, by name."""
    selfs = self_times_ns(spans)
    totals = {}
    for span in spans:
        if span["run"] == run:
            totals[span["name"]] = totals.get(span["name"], 0.0) + selfs[span["id"]] / 1e9
    return totals


# ---------------------------------------------------------------------------
# Records.
# ---------------------------------------------------------------------------


def iterations(records, phase):
    """The records of each iteration of one phase, in order. An iteration is
    everything emitted since the previous "iter" record, that one included."""
    groups, current = [], []
    for record in records:
        if record.get("phase") != phase:
            continue
        current.append(record)
        if record["kind"] == "iter":
            groups.append(current)
            current = []
    return groups


def of_kind(records, kind, phase=None):
    return [r for r in records if r["kind"] == kind and (phase is None or r.get("phase") == phase)]


def base_property(spec):
    return spec.split(":", 1)[0]


# ---------------------------------------------------------------------------
# Known-answer gates. Each returns the list of mismatches (empty = correct).
# ---------------------------------------------------------------------------


def gate_check(workload, record):
    bad = []
    alg = record["alg"]
    if not record["ok"] or record["violation"]:
        bad.append(f"{alg}: check failed: {record['violation']!r}")
    if record["exhausted_limit"]:
        bad.append(f"{alg}: exploration hit max_states")
    if record["io_error"]:
        bad.append(f"{alg}: spill I/O error {record['io_error']!r}")
    for name, holds, evaluated in zip(record["properties"], record["holds"], record["evaluated"]):
        if not (holds and evaluated):
            bad.append(f"{alg}: property {name} not ok")
    if record["properties"] != record["props"].split(","):
        bad.append(f"{alg}: reports {record['properties']} for {record['props']}")
    bound = None
    for name, has, value in zip(record["properties"], record["has_bound"], record["bounds"]):
        if base_property(name) == "rmr-bound":
            bound = value if has else "unbounded"
    if workload in ("ya4-hash", "ya4-sym-ddd"):
        expected = YA4_HASH if workload == "ya4-hash" else YA4_SYM_DDD
        for key, value in expected.items():
            if record[key] != value:
                bad.append(f"{alg}: {key} = {record[key]}, expected {value}")
        if workload == "ya4-sym-ddd":
            if record["spilled_bytes"] == 0:
                bad.append(f"{alg}: nothing spilled under the 8 MiB budget")
            if record["ddd_runs"] == 0:
                bad.append(f"{alg}: no DDD runs formed")
        if bound is not None and bound != YA4_BOUND:
            bad.append(f"{alg}: rmr-bound {bound}, expected {YA4_BOUND}")
    elif workload == "zoo-n3":
        if alg not in ZOO_BOUNDS and alg not in ZOO_UNBOUNDED:
            bad.append(f"{alg}: no known answer")
        elif bound is not None:
            expected = ZOO_BOUNDS.get(alg, "unbounded")
            if bound != expected:
                bad.append(f"{alg}: rmr-bound {bound}, expected {expected}")
    return bad


def gate_adversary(record):
    alg = record["alg"]
    if not record["evaluated"]:
        return [f"{alg}: adversary not evaluated"]
    if alg in ZOO_UNBOUNDED:
        return [] if record["unbounded"] else [f"{alg}: adversary found a bound, expected unbounded"]
    expected = ZOO_BOUNDS.get(alg)
    if expected is None:
        return [f"{alg}: no known answer"]
    bad = []
    if record["unbounded"] or record["bound"] != expected:
        bad.append(f"{alg}: adversary bound {record['bound']}, expected {expected}")
    if not record["confirmed"] or record["measured_cost"] != record["bound"]:
        bad.append(f"{alg}: witness re-simulates to {record['measured_cost']}, not confirmed")
    return bad


def gate_campaign(record, seed):
    """The campaign-level answers of one sweep iteration (the cells are
    gated one by one through bad_cells)."""
    bad = []
    expect = {"cells": SWEEP_CELLS, "executed": SWEEP_CELLS, "lb_attempted": SWEEP_LB_ROUND_TRIPS,
              "lb_ok": SWEEP_LB_ROUND_TRIPS, "resume_cached": SWEEP_CELLS, "resume_executed": 0}
    for key, value in expect.items():
        if record[key] != value:
            bad.append(f"sweep: {key} = {record[key]}, expected {value}")
    if record["resume_hash"] != record["hash"]:
        bad.append(f"sweep: resumed report hash {record['resume_hash']} != fresh {record['hash']}")
    if seed == DEFAULT_SEED and record["sc_total"] != SWEEP_SC_TOTAL_AT_DEFAULT_SEED:
        bad.append(f"sweep: total SC cost {record['sc_total']}, expected "
                   f"{SWEEP_SC_TOTAL_AT_DEFAULT_SEED} at seed {DEFAULT_SEED}")
    if record.get("layer_mismatches", 0):
        bad.append(f"sweep: layer pass disagrees with the service on "
                   f"{record['layer_mismatches']} cells")
    return bad


def gate_layers(record):
    bad = []
    if record["cells"] != SWEEP_CELLS or record["lb_runs"] != SWEEP_LB_ROUND_TRIPS:
        bad.append(f"layer pass: {record['cells']} cells, {record['lb_runs']} lb runs")
    if record["lb_failures"]:
        bad.append(f"layer pass: {record['lb_failures']} lb round trips failed")
    return bad


class Verdict:
    """Items attempted and failed against their known answers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def item(self, mismatches, weight=1, failed=None):
        """Count `weight` items; `failed` of them (default: all, if any
        mismatch) differ from the known answer."""
        self.attempted += weight
        if mismatches:
            self.failed += weight if failed is None else failed
            self.mismatches.extend(mismatches)

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0


def evaluate(workload, records, seed):
    """Gate every output of one driver run. An item is one check (ya4-*),
    one algorithm's check + adversary (zoo-n3), or one campaign cell plus one
    campaign-level item per sweep (sweep-lb)."""
    verdict = Verdict()
    if not of_kind(records, "iter"):
        verdict.item(["driver reported no iteration"])
    for record in of_kind(records, "check", "layer"):
        verdict.item(gate_check(workload, record))
    for record in of_kind(records, "layers"):
        verdict.item(gate_layers(record))
    hashes = set()
    groups = [g for phase in ("run", "untraced", "traced") for g in iterations(records, phase)]
    for group in groups:
        if workload in ("ya4-hash", "ya4-sym-ddd"):
            checks = of_kind(group, "check")
            if len(checks) != 1:
                verdict.item([f"iteration has {len(checks)} checks, expected 1"])
            for record in checks:
                verdict.item(gate_check(workload, record))
        elif workload == "zoo-n3":
            checks = {r["alg"]: r for r in of_kind(group, "check")}
            advs = {r["alg"]: r for r in of_kind(group, "adv")}
            expected = sorted(ZOO_BOUNDS) + sorted(ZOO_UNBOUNDED)
            for alg in expected:
                if alg not in checks or alg not in advs:
                    verdict.item([f"{alg}: missing from the iteration"])
                else:
                    verdict.item(gate_check(workload, checks[alg]) + gate_adversary(advs[alg]))
            for alg in sorted(set(checks) - set(expected)):
                verdict.item([f"{alg}: no known answer"])
        elif workload == "sweep-lb":
            sweeps = of_kind(group, "sweep")
            if len(sweeps) != 1:
                verdict.item([f"iteration has {len(sweeps)} sweeps, expected 1"])
            for record in sweeps:
                bad_cells = record["bad_cells"]
                verdict.item([f"sweep: cell {i} not ok" for i in bad_cells],
                             weight=record["cells"], failed=len(bad_cells))
                verdict.item(gate_campaign(record, seed))
                hashes.add(record["hash"])
    if len(hashes) > 1:
        verdict.item([f"sweep: report hash differs between iterations: {sorted(hashes)}"])
    return verdict


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def iteration_cells_ms(workload, group):
    """Per-cell wall times of one iteration, in ms. A cell is the workload's
    unit with its own verdict: a campaign cell (sweep-lb, from
    CellResult::wall_micros), an algorithm's check + adversary (zoo-n3), the
    check itself (ya4-*)."""
    if workload == "sweep-lb":
        return [us / 1000.0 for us in of_kind(group, "sweep")[0]["cell_wall_us"]]
    kind = "cell" if workload == "zoo-n3" else "check"
    return [c["wall_s"] * 1000.0 for c in of_kind(group, kind)]


def end_to_end(workload, records, setup_samples):
    """The untraced run's metrics, by name: each one computed per iteration
    (one full pass of the workload), then the median over iterations.
    states_per_s is explored states per second of check() for the check
    workloads; for sweep-lb it is simulator states (the canonical runs'
    steps) per second of the fresh campaign. cells_per_s is cells per second
    of the iteration (sweep-lb: of the fresh campaign). Returns the metrics
    BENCHMARK.json lists, the ones only printed, and a note per metric."""
    per_iter = {name: [] for name in ("wall_s", "states_per_s", "cells_per_s",
                                      "cell_p50_ms", "cell_p99_ms")}
    pooled_cells, engine_peak = [], 0
    for group in iterations(records, "run"):
        wall = group[-1]["wall_s"]
        cells = iteration_cells_ms(workload, group)
        pooled_cells.extend(cells)
        if workload == "sweep-lb":
            sweep = of_kind(group, "sweep")[0]
            states, busy, wall_for_cells = sweep["steps_total"], sweep["fresh_s"], sweep["fresh_s"]
        else:
            checks = of_kind(group, "check")
            states = sum(c["states"] for c in checks)
            busy = sum(c["wall_s"] for c in checks)
            wall_for_cells = wall
            engine_peak = max([engine_peak] + [c["peak_memory_bytes"] for c in checks])
        per_iter["wall_s"].append(wall)
        per_iter["states_per_s"].append(states / busy)
        per_iter["cells_per_s"].append(len(cells) / wall_for_cells)
        per_iter["cell_p50_ms"].append(percentile(cells, 50))
        per_iter["cell_p99_ms"].append(percentile(cells, 99))
    end = of_kind(records, "end")[0]
    metrics = {"setup_s": median(setup_samples)}
    metrics.update({name: median(values) for name, values in per_iter.items()})
    metrics["peak_rss_mib"] = end["max_rss_kib"] / 1024.0
    # Printed, not in BENCHMARK.json: a sub-millisecond sweep cell's median
    # follows the host's memory latency, which moves it by a fifth between
    # runs of the same code, and on the other workloads it picks one of a
    # dozen unlike cells.
    extra = {"cell_p50_ms": metrics.pop("cell_p50_ms"), "engine_peak_mib": engine_peak / MIB}
    runs = len(per_iter["wall_s"])
    tail = tail_percentile(pooled_cells)
    notes = {
        "setup_s": f"median of {len(setup_samples)} process starts",
        "wall_s": f"median of {runs} iterations",
        "cell_p50_ms": f"median over {runs} iterations of {len(pooled_cells) // runs} cells each",
        "cell_p99_ms": "highest percentile with >=10 of all cells beyond: "
                       + (f"p{tail[0]:g} = {tail[1]:.4g} ms" if tail else "none"),
        "engine_peak_mib": "no checker in this workload" if workload == "sweep-lb" else "",
    }
    return metrics, extra, notes


PER_LAYER_UNITS = {
    "check.explore_s": "s", "check.progress_s": "s", "check.lockout_s": "s",
    "check.rmr_bound_s": "s", "check.cpu_util": "ratio",
    "check.states": "count", "check.transitions": "count", "check.dedup_hits": "count",
    "check.dedup_ratio": "ratio", "check.interned_automata": "count",
    "check.interned_regfiles": "count", "check.engine_peak_mib": "MiB",
    "check.visited_peak_mib": "MiB", "check.progress_peak_mib": "MiB",
    "check.spilled_mib": "MiB", "check.ddd_runs": "count", "check.symmetry_group": "count",
    "adv.analysis_s": "s", "adv.sweeps": "count", "adv.witness_steps": "count",
    "adv.confirmed": "count", "adv.unbounded": "count",
    "lb.construct_s": "s", "lb.linearize_s": "s", "lb.encode_s": "s", "lb.decode_s": "s",
    "sim.canonical_run_s": "s", "sim.validate_s": "s", "cost.models_s": "s",
    "trace.stats_s": "s",
    "lb.delta_evaluations": "count", "lb.metasteps": "count", "lb.insertions": "count",
    "lb.encoding_bytes": "bytes", "lb.decode_iterations": "count", "sim.steps": "count",
    "exp.cell_busy_s": "s", "exp.pool_util": "ratio", "exp.cell_max_ms": "ms",
    "exp.journal_resume_s": "s", "exp.journal_segments": "count", "exp.report_s": "s",
    "bench.untraced_wall_s": "s", "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s", "bench.spans": "count",
}

# Per-property extra time, by the property's base name.
PROPERTY_METRIC = {"progress": "check.progress_s", "lockout": "check.lockout_s",
                   "rmr-bound": "check.rmr_bound_s"}

# Layer-pass span name -> per-layer timing metric (sweep-lb).
SPAN_METRIC = {"lb.construct": "lb.construct_s", "lb.linearize": "lb.linearize_s",
               "lb.encode": "lb.encode_s", "lb.decode": "lb.decode_s",
               "sim.canonical_run": "sim.canonical_run_s", "sim.validate": "sim.validate_s",
               "cost.models": "cost.models_s", "trace.stats": "trace.stats_s"}


def per_layer(records, spans):
    """The traced run's per-layer metrics; a layer the workload never calls
    reads 0. Property times are differences along the property list: the
    layer pass checks every proper prefix of it, the traced iteration the
    whole list."""
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layer_s = self_seconds_by_name(spans, 1)
    traced_s = self_seconds_by_name(spans, 2)

    traced_checks = of_kind(records, "check", "traced")
    if traced_checks:
        chain = sorted({tuple(r["props"].split(",")) for r in of_kind(records, "check", "layer")},
                       key=len)
        chain.append(tuple(traced_checks[0]["props"].split(",")))
        times = [layer_s.get(f"check.check[{','.join(props)}]", 0.0) for props in chain[:-1]]
        times.append(traced_s.get(f"check.check[{','.join(chain[-1])}]", 0.0))
        m["check.explore_s"] = times[0]
        for i in range(1, len(chain)):
            m[PROPERTY_METRIC[base_property(chain[i][-1])]] = times[i] - times[i - 1]
        m["check.cpu_util"] = utilization(sum(r["cpu_s"] for r in traced_checks),
                                          sum(r["wall_s"] for r in traced_checks),
                                          traced_checks[0]["workers"])
        for key in ("states", "transitions", "dedup_hits", "interned_automata",
                    "interned_regfiles", "ddd_runs"):
            m["check." + key] = float(sum(r[key] for r in traced_checks))
        seen = m["check.states"] + m["check.dedup_hits"]
        m["check.dedup_ratio"] = m["check.dedup_hits"] / seen if seen else 0.0
        for metric, key in (("check.engine_peak_mib", "peak_memory_bytes"),
                            ("check.visited_peak_mib", "peak_visited_bytes"),
                            ("check.progress_peak_mib", "progress_peak_bytes"),
                            ("check.spilled_mib", "spilled_bytes")):
            m[metric] = max(r[key] for r in traced_checks) / MIB
        m["check.symmetry_group"] = float(max(r["symmetry_group"] for r in traced_checks))

    advs = of_kind(records, "adv", "traced")
    if advs:
        m["adv.analysis_s"] = traced_s.get("adv.find_worst_schedule", 0.0)
        m["adv.sweeps"] = float(sum(r["sweeps"] for r in advs))
        m["adv.witness_steps"] = float(sum(r["witness_steps"] for r in advs))
        m["adv.confirmed"] = float(sum(r["confirmed"] for r in advs))
        m["adv.unbounded"] = float(sum(r["unbounded"] for r in advs))

    for name, metric in SPAN_METRIC.items():
        m[metric] = layer_s.get(name, 0.0)
    for layers in of_kind(records, "layers"):
        for key in ("delta_evaluations", "metasteps", "insertions", "encoding_bytes",
                    "decode_iterations"):
            m["lb." + key] = float(layers["lb_" + key])
        m["sim.steps"] = float(layers["sim_steps"])

    for sweep in of_kind(records, "sweep", "traced"):
        busy = sum(sweep["cell_wall_us"]) / 1e6
        m["exp.cell_busy_s"] = busy
        m["exp.pool_util"] = utilization(busy, sweep["fresh_s"], sweep["workers"])
        m["exp.cell_max_ms"] = max(sweep["cell_wall_us"]) / 1000.0
        m["exp.journal_resume_s"] = traced_s.get("exp.resume", 0.0)
        m["exp.journal_segments"] = float(sweep["journal_segments"])
        m["exp.report_s"] = traced_s.get("exp.report", 0.0)

    walls = {r["phase"]: r["wall_s"] for r in of_kind(records, "iter")}
    m["bench.untraced_wall_s"] = walls.get("untraced", 0.0)
    m["bench.traced_wall_s"] = walls.get("traced", 0.0)
    m["bench.trace_overhead_s"] = m["bench.traced_wall_s"] - m["bench.untraced_wall_s"]
    m["bench.spans"] = float(len(spans))
    return m
