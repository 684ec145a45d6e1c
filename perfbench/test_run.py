#!/usr/bin/env python3
"""Tests of the benchmark's own logic: percentile rules, the correctness
gate, and regpu_bench's digests. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The BenchBinaryTest cases build perfbench/regpu_bench first, as run.py does,
and run it at the benchmark's own size with a one-second budget; they take
about a minute.
"""

import copy
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FRAMES = 12


def pass_record(cell, technique, name, rep, seed, digest):
    frame_ms = [10.0 + i for i in range(FRAMES)]
    rec = {
        "type": "pass", "cell": cell, "technique": technique, "pass": name,
        "rep": rep, "scene_seed": seed, "frames_requested": FRAMES,
        "frames_done": FRAMES,
        "setup_s": 0.002, "run_s": sum(frame_ms) / 1e3, "digest": digest,
        "conservation_violations": 0, "re_false_positives": 0,
        "model": {k: 100 for k in (
            "tiles_total", "tiles_rendered", "tiles_skipped",
            "flushes_elided", "fragments_generated", "fragments_shaded",
            "fragments_memo_reused", "texel_fetches", "cycles",
            "energy_pj", "dram_bytes")},
        "frame_ms": frame_ms,
    }
    if name != "traced":
        rec.update({"run_cpu_s": rec["run_s"], "frame_cpu_ms": frame_ms})
    if name == "traced":
        rec.update({"mem_events": 1000, "texture_hits": 9,
                    "texture_accesses": 10, "l2_hits": 1, "l2_accesses": 2})
        for key, ms in (("emit_ms", 0.1), ("geometry_ms", 0.5),
                        ("hooks_ms", 0.2), ("raster_ms", 6.0),
                        ("mem_ms", 2.0)):
            rec[key] = [ms] * FRAMES
    return rec


TECHNIQUES = {"base": "Baseline", "re": "RE", "te": "TE", "memo": "Memo"}


def fake_digest(cell, seed):
    return f"d-{cell}-{seed}"


def fake_reference(workload):
    return {str(s): {c: fake_digest(c, s) for c in run.cell_labels(workload)}
            for s in range(1, run.SCENE_SEEDS + 1)}


def fake_run(workload, trace, reps=20):
    """regpu_bench records of a clean run: cell i of repetition r renders
    scene seed (r + i) mod 10 + 1, and every pass gives the fake_reference
    digest."""
    passes = ("plain", "traced", "obs") if trace else ("plain",)
    records = []
    for rep in range(reps):
        for i, cell in enumerate(run.cell_labels(workload)):
            technique = TECHNIQUES[cell.split(":")[1]]
            seed = (rep + i) % run.SCENE_SEEDS + 1
            records += [pass_record(cell, technique, p, rep, seed,
                                    fake_digest(cell, seed))
                        for p in passes]
    records.append({"type": "summary", "reps": reps, "measured_s": 1.0,
                    "peak_rss_kb": 20480})
    return records


def first(records, cell, name):
    return next(r for r in records if r.get("cell") == cell
                and r.get("pass") == name)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 201))
        self.assertEqual(run.percentile(values, 50), 100)
        self.assertEqual(run.percentile(values, 95), 190)
        self.assertEqual(run.percentile(list(reversed(values)), 95), 190)

    def test_tail_must_hold_ten_samples(self):
        self.assertEqual(run.samples_beyond(200, 95), 10)
        self.assertEqual(run.min_samples_for(95), 200)
        self.assertEqual(run.min_samples_for(50), 20)
        with self.assertRaises(ValueError):
            run.percentile(list(range(199)), 95)
        with self.assertRaises(ValueError):
            run.percentile(list(range(19)), 50)

    def test_sample_count_is_stated(self):
        _, lines = run.evaluate(fake_run("static-re", False), None,
                                "static-re", False,
                                fake_reference("static-re"))
        p95 = next(l for l in lines if l.startswith("frame_cpu_ms_p95"))
        self.assertIn("1200 frames, 60 beyond p95", p95)


class GateTest(unittest.TestCase):
    def check(self, records, workload, trace, failed, error=None,
              expected=None):
        if expected is None:
            expected = fake_reference(workload)
        result, lines = run.evaluate(records, error, workload, trace,
                                     expected)
        self.assertEqual(result["attempted"],
                         len(run.cell_labels(workload)))
        self.assertEqual(result["failed"], failed, lines)
        self.assertEqual(result["correct"], failed == 0)
        units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
        self.assertEqual(set(result["metrics"]), set(units))
        return result, lines

    def test_clean_run_passes(self):
        for workload in run.WORKLOADS:
            self.check(fake_run(workload, True), workload, True, failed=0)
            result, _ = self.check(fake_run(workload, False), workload,
                                   False, failed=0)
            self.assertEqual(
                result["metrics"]["cells_passed_pct"]["value"], 100)

    def test_dropped_frame_fails_its_cell(self):
        records = fake_run("static-re", False)
        rec = first(records, "ccs:re", "plain")
        rec["frames_done"] -= 1
        rec["frame_ms"].pop()
        rec["frame_cpu_ms"].pop()
        result, lines = self.check(records, "static-re", False, failed=1)
        self.assertEqual(result["metrics"]["cells_passed_pct"]["value"], 80)
        self.assertTrue(any("ccs:re" in l and "11 of 12 frames" in l
                            for l in lines))

    def test_missing_cpu_frame_time_fails_its_cell(self):
        records = fake_run("static-re", False)
        first(records, "cde:re", "plain")["frame_cpu_ms"].pop()
        _, lines = self.check(records, "static-re", False, failed=1)
        self.assertTrue(any("cde:re" in l and "11 frame_cpu_ms values" in l
                            for l in lines))

    def test_digest_mismatch_fails_its_cell(self):
        records = fake_run("motion-full", True)
        first(records, "mst:te", "traced")["digest"] = "other"
        _, lines = self.check(records, "motion-full", True, failed=1)
        self.assertTrue(any("mst:te" in l and "digest" in l for l in lines))

    def test_digest_change_between_repetitions_fails(self):
        records = fake_run("motion-pool", False)
        [r for r in records if r.get("cell") == "abi:base"][-1]["digest"] = "x"
        self.check(records, "motion-pool", False, failed=1)

    def test_digest_off_the_reference_fails(self):
        # Every pass and repetition agrees, but not with the reference.
        for trace in (False, True):
            expected = fake_reference("motion-full")
            for by_cell in expected.values():
                by_cell["ter:memo"] = "d-before"
            _, lines = self.check(fake_run("motion-full", trace),
                                  "motion-full", trace, failed=1,
                                  expected=expected)
            self.assertTrue(any("ter:memo" in l and "reference d-before" in l
                                for l in lines))

    def test_missing_reference_fails_every_cell(self):
        expected = fake_reference("static-re")
        del expected["3"]["hop:re"]
        self.check(fake_run("static-re", False), "static-re", False,
                   failed=5, expected=expected)

    def test_model_violations_fail(self):
        records = fake_run("static-re", False)
        first(records, "ccs:re", "plain")["conservation_violations"] = 2
        first(records, "hop:re", "plain")["re_false_positives"] = 1
        result, _ = self.check(records, "static-re", False, failed=2)
        self.assertEqual(result["metrics"]["cells_passed_pct"]["value"], 60)

    def test_missing_pass_fails(self):
        records = [r for r in fake_run("static-re", True)
                   if not (r.get("cell") == "coc:re"
                           and r.get("pass") == "obs")]
        self.check(records, "static-re", True, failed=1)

    def test_layers_beyond_frame_time_fail(self):
        records = fake_run("static-re", True)
        first(records, "ctr:re", "traced")["raster_ms"][3] = 1e3
        self.check(records, "static-re", True, failed=1)

    def test_bench_error_fails_every_cell(self):
        for workload in run.WORKLOADS:
            result, _ = self.check(fake_run(workload, False), workload,
                                   False, failed=len(run.cell_labels(workload)),
                                   error="regpu_bench exited with code 3")
            self.assertEqual(result["metrics"]["cells_passed_pct"]["value"],
                             0)

    def test_malformed_record_fails_every_cell(self):
        records = fake_run("static-re", False)
        del first(records, "cde:re", "plain")["digest"]
        self.check(records, "static-re", False, failed=5)

    def test_thin_tail_fails_instead_of_reporting(self):
        self.check(fake_run("static-re", False, reps=1), "static-re", False,
                   failed=5)


class RunBenchTest(unittest.TestCase):
    def run_script(self, code):
        return run.run_bench([sys.executable, "-c", code], 60)

    def test_crash_is_an_error(self):
        _, error = self.run_script(
            "print('{\"type\": \"setup\"}'); raise SystemExit(3)")
        self.assertIn("code 3", error)

    def test_unparseable_output_is_an_error(self):
        _, error = self.run_script("print('hello')")
        self.assertIn("unparseable", error)

    def test_missing_summary_is_an_error(self):
        _, error = self.run_script("print('{\"type\": \"setup\"}')")
        self.assertIn("summary", error)

    def test_timeout_is_an_error(self):
        _, error = run.run_bench(
            [sys.executable, "-c", "import time; time.sleep(5)"], 0.5)
        self.assertIn("exceeded", error)

    def test_timeout_covers_the_budget(self):
        # regpu_bench may overrun its budget by a repetition; the timeout
        # must leave room for that at every budget.
        with mock.patch.object(run, "run_bench",
                               return_value=([], "stub")) as stub:
            for seconds in (1, 10, 30, 60, 200):
                for trace in (False, True):
                    run.run_workload("regpu_bench", "motion-full", [1],
                                     seconds, trace)
        self.assertEqual(stub.call_count, 10)
        for (cmd, timeout), _ in stub.call_args_list:
            budget = float(cmd[cmd.index("--seconds") + 1])
            self.assertGreaterEqual(timeout, 2 * budget + 60, cmd)


class SeedTest(unittest.TestCase):
    def test_scene_seeds_wrap(self):
        self.assertEqual([run.scene_seed(s) for s in (0, 1, 10, 11, 25)],
                         [10, 1, 10, 1, 5])

    def test_every_run_rotates_through_every_scene_seed(self):
        self.assertEqual(run.scene_seeds(1), list(range(1, 11)))
        self.assertEqual(run.scene_seeds(17), [7, 8, 9, 10, 1, 2, 3, 4, 5, 6])
        self.assertEqual(run.scene_seeds(7), run.scene_seeds(17))

    def test_reference_covers_every_scene_seed_and_cell(self):
        digests = json.loads(run.REFERENCE.read_text())["digests"]
        cells = {c for w in run.WORKLOADS for c in run.cell_labels(w)}
        self.assertEqual(set(digests),
                         {str(s) for s in range(1, run.SCENE_SEEDS + 1)})
        for seed, by_cell in digests.items():
            self.assertEqual(set(by_cell), cells, seed)


class BenchBinaryTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def records(self, workload, seeds, trace=False):
        """Records of a one-second run on the scene seeds seeds, shared
        between the tests."""
        key = (workload, tuple(seeds), trace)
        if key not in self.runs:
            records, error = run.run_workload(self.binary, workload, seeds,
                                              1, trace)
            self.assertIsNone(error)
            self.runs[key] = records
        return copy.deepcopy(self.runs[key])

    def evaluate(self, records, workload, trace=False, expected=None):
        return run.evaluate(records, None, workload, trace,
                            expected or run.load_reference())

    def digests(self, records):
        return {r["cell"]: r["digest"] for r in records
                if r.get("type") == "pass"}

    def test_pool_and_direct_mode_match_the_reference(self):
        full = self.digests(self.records("motion-full", [5]))
        pool = self.digests(self.records("motion-pool", [5]))
        reference = run.load_reference()["5"]
        self.assertEqual(set(pool), set(run.cell_labels("motion-pool")))
        for cell, digest in pool.items():
            self.assertEqual(full[cell], digest, cell)
            self.assertEqual(reference[cell], digest, cell)

    def test_cells_rotate_through_the_scene_seeds(self):
        seeds = run.scene_seeds(4)
        labels = run.cell_labels("static-re")
        records = run.passes_of(self.records("static-re", seeds), "plain")
        self.assertGreater(len(records), len(labels))
        for r in records:
            i = labels.index(r["cell"])
            self.assertEqual(r["scene_seed"],
                             seeds[(r["rep"] + i) % len(seeds)], r["cell"])

    def test_traced_pass_reproduces_simulator(self):
        for workload in run.WORKLOADS:
            records = self.records(workload, run.scene_seeds(3), trace=True)
            result, lines = self.evaluate(records, workload, trace=True)
            self.assertTrue(result["correct"], lines)

    def test_second_seed_changes_scenes_not_metric_names(self):
        a = self.records("static-re", run.scene_seeds(1))
        b = self.records("static-re", run.scene_seeds(2))
        da, db = self.digests(a), self.digests(b)
        self.assertEqual(set(da), set(db))
        for cell in da:
            self.assertNotEqual(da[cell], db[cell], cell)
        ra, _ = self.evaluate(a, "static-re")
        rb, _ = self.evaluate(b, "static-re")
        self.assertTrue(ra["correct"] and rb["correct"])
        self.assertEqual(list(ra["metrics"]), list(rb["metrics"]))

    def test_wrong_seed_reference_fails_every_cell(self):
        # Every cell checked against the reference of the next scene seed.
        reference = run.load_reference()
        shifted = {str(s): reference[str(s % run.SCENE_SEEDS + 1)]
                   for s in range(1, run.SCENE_SEEDS + 1)}
        result, _ = self.evaluate(self.records("static-re",
                                               run.scene_seeds(1)),
                                  "static-re", expected=shifted)
        self.assertEqual(result["failed"], 5)

    def test_injected_frame_drop_in_real_output(self):
        records = self.records("motion-pool", run.scene_seeds(5))
        rec = first(records, "csn:te", "plain")
        rec["frames_done"] -= 1
        rec["frame_ms"].pop()
        rec["frame_cpu_ms"].pop()
        result, _ = self.evaluate(records, "motion-pool")
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["metrics"]["cells_passed_pct"]["value"], 90)

    def test_injected_wrong_digest_in_real_output(self):
        records = self.records("motion-pool", run.scene_seeds(5))
        rec = first(records, "tib:base", "plain")
        rec["digest"] = "%016x" % (int(rec["digest"], 16) ^ 1)
        result, _ = self.evaluate(records, "motion-pool")
        self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
