"""Self-test of the benchmark's arithmetic and known-answer gates.

    python3 perfbench/run.py --self-test
    python3 -m unittest discover -s perfbench -p 'test_*.py'

Needs no build: the records below are shaped like melb_perfbench's output.
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import analysis  # noqa: E402

YA4_PROPS = ["mutex", "progress", "rmr-bound:state-change"]


def check_record(alg="yang-anderson", props=YA4_PROPS, phase="run", bound=20, wall=2.0,
                 cpu=6.0, workers=4, **counts):
    record = {
        "kind": "check", "phase": phase, "alg": alg, "props": ",".join(props),
        "workers": workers, "wall_s": wall, "cpu_s": cpu, "ok": True,
        "exhausted_limit": False, "violation": "", "io_error": "",
        "interned_automata": 224, "interned_regfiles": 32016,
        "peak_memory_bytes": 3 * analysis.MIB, "peak_visited_bytes": analysis.MIB,
        "progress_peak_bytes": 0, "spilled_bytes": 0, "ddd_runs": 0, "symmetry_group": 0,
        "properties": list(props), "holds": [True] * len(props),
        "evaluated": [True] * len(props),
        "bounds": [bound if p.startswith("rmr-bound") and bound is not None else 0 for p in props],
        "has_bound": [p.startswith("rmr-bound") and bound is not None for p in props],
    }
    record.update(analysis.YA4_HASH)
    record.update(counts)
    return record


def iter_record(wall, phase="run", index=0):
    return {"kind": "iter", "phase": phase, "index": index, "wall_s": wall}


def sweep_record(phase="run", bad_cells=(), sc_total=analysis.SWEEP_SC_TOTAL_AT_DEFAULT_SEED,
                 resume_hash="abc", cell_wall_us=None):
    cells = analysis.SWEEP_CELLS
    return {
        "kind": "sweep", "phase": phase, "workers": 4, "fresh_s": 2.0, "resume_s": 0.01,
        "report_s": 0.02, "cells": cells, "executed": cells, "ok_cells": cells - len(bad_cells),
        "lb_attempted": analysis.SWEEP_LB_ROUND_TRIPS, "lb_ok": analysis.SWEEP_LB_ROUND_TRIPS,
        "sc_total": sc_total, "steps_total": 800000, "hash": "abc", "resume_hash": resume_hash,
        "resume_cached": cells, "resume_executed": 0, "journal_segments": 53,
        "journal_records": cells, "bad_cells": list(bad_cells),
        "cell_wall_us": cell_wall_us or [1000 * (i % 100 + 1) for i in range(cells)],
    }


def zoo_iteration(phase="run", wrong=None):
    records = []
    for alg in sorted(analysis.ZOO_BOUNDS) + sorted(analysis.ZOO_UNBOUNDED):
        bound = analysis.ZOO_BOUNDS.get(alg)
        if alg == wrong:
            bound = (bound or 0) + 1
        props = ["mutex", "progress", "lockout", "rmr-bound:state-change"]
        records.append(check_record(alg, props, phase, bound=bound, states=1000,
                                    transitions=3000, dedup_hits=2000))
        records.append({"kind": "adv", "phase": phase, "alg": alg, "wall_s": 0.1,
                        "evaluated": True, "unbounded": bound is None, "bound": bound or 0,
                        "states": 1000, "sweeps": 3, "witness_steps": 0 if bound is None else 20,
                        "measured_cost": bound or 0, "confirmed": bound is not None})
        records.append({"kind": "cell", "phase": phase, "alg": alg, "wall_s": 0.2})
    return records


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(analysis.median([3, 1, 2]), 2)
        self.assertEqual(analysis.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            analysis.median([])

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile(values, 99), 99)
        self.assertEqual(analysis.percentile(values, 100), 100)
        self.assertEqual(analysis.percentile([7], 99), 7)

    def test_highest_percentile_with_ten_samples_beyond(self):
        # 1000 samples: p99.9 has 1 beyond, p99 exactly 10.
        self.assertEqual(analysis.tail_percentile(list(range(1000))), (99.0, 989, 10))
        # 100 samples: p99 has 1, p95 has 5, p90 has 10.
        self.assertEqual(analysis.tail_percentile(list(range(1, 101))), (90.0, 90, 10))
        # 20 samples: only the median has 10 beyond; 19 have none.
        self.assertEqual(analysis.tail_percentile(list(range(20)))[0], 50.0)
        self.assertIsNone(analysis.tail_percentile(list(range(19))))

    def test_cpu_and_pool_utilization(self):
        # cpu_util: 6 CPU-seconds over a 2 s check on 4 workers.
        self.assertAlmostEqual(analysis.utilization(6.0, 2.0, 4), 0.75)
        # pool_util: 3 s of summed cell walls over a 1 s sweep on 4 workers.
        self.assertAlmostEqual(analysis.utilization(3.0, 1.0, 4), 0.75)
        self.assertEqual(analysis.utilization(1.0, 0.0, 4), 0.0)


class Spans(unittest.TestCase):
    def test_self_time_is_span_minus_child_coverage(self):
        spans = [
            {"id": 1, "parent": 0, "run": 1, "name": "root", "start_ns": 0, "end_ns": 100},
            {"id": 2, "parent": 1, "run": 1, "name": "a", "start_ns": 10, "end_ns": 40},
            # Overlaps child 2: the covered interval counts once.
            {"id": 3, "parent": 1, "run": 1, "name": "b", "start_ns": 30, "end_ns": 60},
            {"id": 4, "parent": 2, "run": 1, "name": "leaf", "start_ns": 15, "end_ns": 25},
            {"id": 5, "parent": 0, "run": 2, "name": "a", "start_ns": 200, "end_ns": 250},
        ]
        selfs = analysis.self_times_ns(spans)
        self.assertEqual(selfs[1], 100 - 50)
        self.assertEqual(selfs[2], 30 - 10)
        self.assertEqual(selfs[4], 10)
        by_name = analysis.self_seconds_by_name(spans, 1)
        self.assertAlmostEqual(by_name["a"], 20e-9)
        self.assertNotIn("a", analysis.self_seconds_by_name(spans, 3))


class KnownAnswers(unittest.TestCase):
    def test_correct_ya4_hash_run_has_zero_error_rate(self):
        records = [check_record(), iter_record(2.0)]
        verdict = analysis.evaluate("ya4-hash", records, 1)
        self.assertEqual((verdict.attempted, verdict.failed), (1, 0))
        self.assertEqual(verdict.error_rate, 0.0)

    def test_wrong_known_answer_raises_error_rate(self):
        wrong = analysis.YA4_HASH["states"] + 1
        records = [check_record(states=wrong), iter_record(2.0),
                   check_record(), iter_record(2.0, index=1)]
        verdict = analysis.evaluate("ya4-hash", records, 1)
        self.assertEqual((verdict.attempted, verdict.failed), (2, 1))
        self.assertEqual(verdict.error_rate, 0.5)
        self.assertIn("states", verdict.mismatches[0])

    def test_wrong_bound_and_missing_spill_fail_ya4_sym_ddd(self):
        counts = dict(analysis.YA4_SYM_DDD, spilled_bytes=1, ddd_runs=93)
        good = check_record(**counts)
        self.assertEqual(analysis.gate_check("ya4-sym-ddd", good), [])
        self.assertTrue(analysis.gate_check("ya4-sym-ddd", check_record(bound=21, **counts)))
        self.assertTrue(analysis.gate_check("ya4-sym-ddd", dict(good, spilled_bytes=0)))

    def test_violated_property_fails(self):
        record = check_record()
        record["holds"] = [True, False, True]
        self.assertTrue(analysis.gate_check("ya4-hash", record))

    def test_zoo_wrong_bound_is_one_failed_item(self):
        good = zoo_iteration() + [iter_record(3.0)]
        self.assertEqual(analysis.evaluate("zoo-n3", good, 1).failed, 0)
        bad = zoo_iteration(wrong="bakery") + [iter_record(3.0)]
        verdict = analysis.evaluate("zoo-n3", bad, 1)
        self.assertEqual((verdict.attempted, verdict.failed), (12, 1))

    def test_zoo_unconfirmed_witness_fails(self):
        records = zoo_iteration()
        for r in records:
            if r["kind"] == "adv" and r["alg"] == "mcs-rmw":
                r["confirmed"] = False
        verdict = analysis.evaluate("zoo-n3", records + [iter_record(3.0)], 1)
        self.assertEqual(verdict.failed, 1)

    def test_sweep_items_are_cells_plus_one_campaign_item(self):
        verdict = analysis.evaluate("sweep-lb", [sweep_record(), iter_record(2.1)],
                                    analysis.DEFAULT_SEED)
        self.assertEqual((verdict.attempted, verdict.failed), (analysis.SWEEP_CELLS + 1, 0))
        verdict = analysis.evaluate("sweep-lb", [sweep_record(bad_cells=[7]), iter_record(2.1)],
                                    analysis.DEFAULT_SEED)
        self.assertEqual(verdict.failed, 1)
        self.assertGreater(verdict.error_rate, 0)

    def test_sc_total_is_pinned_only_at_the_default_seed(self):
        record = sweep_record(sc_total=1)
        self.assertTrue(analysis.gate_campaign(record, analysis.DEFAULT_SEED))
        self.assertEqual(analysis.gate_campaign(record, 7), [])
        self.assertTrue(analysis.gate_campaign(sweep_record(resume_hash="def"), 7))

    def test_missing_iteration_output_fails(self):
        verdict = analysis.evaluate("ya4-hash", [iter_record(2.0)], 1)
        self.assertEqual(verdict.failed, 1)
        self.assertEqual(analysis.evaluate("ya4-hash", [], 1).failed, 1)


class Metrics(unittest.TestCase):
    def test_end_to_end_takes_medians_over_iterations(self):
        records = []
        for index, wall in enumerate([2.0, 4.0, 3.0]):
            records += [check_record(wall=wall), iter_record(wall, index=index)]
        records.append({"kind": "end", "max_rss_kib": 2048})
        metrics, extra, _ = analysis.end_to_end("ya4-hash", records, [0.001, 0.003, 0.002])
        self.assertEqual(set(metrics), {"setup_s", "wall_s", "states_per_s", "cells_per_s",
                                        "cell_p99_ms", "peak_rss_mib"})
        self.assertEqual(metrics["wall_s"], 3.0)
        self.assertEqual(metrics["setup_s"], 0.002)
        self.assertAlmostEqual(metrics["states_per_s"], analysis.YA4_HASH["states"] / 3.0)
        self.assertAlmostEqual(metrics["cells_per_s"], 1 / 3.0)
        self.assertEqual(metrics["cell_p99_ms"], 3000.0)
        self.assertEqual(metrics["peak_rss_mib"], 2.0)
        self.assertEqual(extra["engine_peak_mib"], 3.0)

    def test_sweep_cell_percentiles(self):
        records = [sweep_record(), iter_record(2.5), {"kind": "end", "max_rss_kib": 1024}]
        metrics, extra, _ = analysis.end_to_end("sweep-lb", records, [0.001])
        self.assertEqual(extra["cell_p50_ms"], 50.0)
        self.assertEqual(metrics["cell_p99_ms"], 99.0)
        self.assertAlmostEqual(metrics["cells_per_s"], analysis.SWEEP_CELLS / 2.0)

    def test_property_times_are_prefix_differences(self):
        records = [
            check_record(props=["mutex"], phase="layer", bound=None),
            check_record(props=["mutex", "progress"], phase="layer", bound=None),
            check_record(phase="traced", wall=5.0, cpu=10.0),
            iter_record(4.8, phase="untraced"), iter_record(5.0, phase="traced"),
        ]

        def span(i, run, name, start, end):
            return {"id": i, "parent": 0, "run": run, "name": name,
                    "start_ns": int(start * 1e9), "end_ns": int(end * 1e9)}
        spans = [span(1, 1, "check.check[mutex]", 0, 3),
                 span(2, 1, "check.check[mutex,progress]", 3, 7),
                 span(3, 2, "check.check[mutex,progress,rmr-bound:state-change]", 10, 15)]
        m = analysis.per_layer(records, spans)
        self.assertEqual(set(m), set(analysis.PER_LAYER_UNITS))
        self.assertAlmostEqual(m["check.explore_s"], 3.0)
        self.assertAlmostEqual(m["check.progress_s"], 1.0)
        self.assertAlmostEqual(m["check.rmr_bound_s"], 1.0)
        self.assertEqual(m["check.lockout_s"], 0.0)
        self.assertAlmostEqual(m["check.cpu_util"], 10.0 / (5.0 * 4))
        self.assertAlmostEqual(m["bench.trace_overhead_s"], 0.2)
        self.assertEqual(m["lb.construct_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
