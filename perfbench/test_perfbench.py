#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The last test builds the binaries into
.bench_build, as run.py does, and runs a short operational_fig13 against a
corrupted golden CSV to show that a failed check fails the benchmark.
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import gen_batch  # noqa: E402
import run  # noqa: E402

# sha256 of generate(1) joined by newlines. A change to the generator that
# moves it changes the serve workloads, and must be made on purpose.
PINNED_SEED_1 = \
    "7bf73d06cb5f66ac31331506b916f99e98b1b2054cf6f778a29f563f5a1b9dc0"


def strip(line, *keys):
    query = json.loads(line)
    for key in ("id",) + keys:
        query.pop(key, None)
    return query


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(gen_batch.generate(7), gen_batch.generate(7))

    def test_pinned_bytes(self):
        text = "\n".join(gen_batch.generate(1)).encode()
        self.assertEqual(hashlib.sha256(text).hexdigest(), PINNED_SEED_1)

    def test_seed_moves_values_not_layout(self):
        one, two = gen_batch.generate(1), gen_batch.generate(2)
        self.assertNotEqual(one, two)
        for a, b in zip(one, two):
            self.assertEqual(strip(a, "seed", "param"),
                             strip(b, "seed", "param"))

    def test_mix(self):
        lines = gen_batch.generate(3)
        self.assertEqual(len(lines), gen_batch.LINES)
        queries = [strip(line) for line in lines]
        exact = sum(q in queries[:i] for i, q in enumerate(queries))
        respelled = 0
        for i, q in enumerate(queries):
            bare = strip(lines[i], "engine")
            if q not in queries[:i] and any(
                    strip(earlier, "engine") == bare
                    for earlier in lines[:i]):
                respelled += 1
        count = round(gen_batch.LINES * gen_batch.EXACT_REPEAT_SHARE)
        self.assertGreaterEqual(exact, count)
        self.assertGreaterEqual(
            exact + respelled,
            count + round(gen_batch.LINES * gen_batch.ENGINE_RESPELL_SHARE))
        fresh = []
        for q in queries:
            if q not in fresh:
                fresh.append(q)
        assay = [q for q in fresh if q.get("workload") == "assay"]
        self.assertEqual(len(assay),
                         round(gen_batch.LINES * gen_batch.ASSAY_SHARE))
        self.assertTrue(any("target_ci_half_width" in q for q in fresh))
        self.assertTrue(any(q.get("rng_version") == "v2" for q in fresh))
        injectors = {q["injector"] for q in fresh}
        self.assertEqual(injectors, {name for name, _ in gen_batch.INJECTORS})


class ChecksTest(unittest.TestCase):
    def setUp(self):
        run.BUILD_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=run.BUILD_DIR))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_csv_check_trips_on_corruption(self):
        golden = run.CAMPAIGNS["operational_fig13"][1]
        copy = self.tmp / "copy.csv"
        shutil.copy(golden, copy)
        self.assertEqual(run.csv_mismatches(copy, golden), 0)
        rows = golden.read_text().splitlines()
        copy.write_text("\n".join(rows[:-2]) + "\n")
        self.assertEqual(run.csv_mismatches(copy, golden), 2)
        rows[5] = rows[5].replace(",500,", ",499,", 1)
        copy.write_text("\n".join(rows) + "\n")
        self.assertEqual(run.csv_mismatches(copy, golden), 1)
        copy.write_text("\n".join(rows[:-2]) + "\n")
        self.assertEqual(run.csv_mismatches(copy, golden), 3)
        copy.write_bytes(golden.read_bytes().rstrip(b"\n"))
        self.assertEqual(run.csv_mismatches(copy, golden), 1)

    def serve_result(self, lines):
        text = "".join(line + "\n" for line in lines)
        return {"output": text.encode(), "lines": 3, "answers": len(lines),
                "exit": 0}

    def test_serve_checks_trip_on_corruption(self):
        good = ['{"id": 1, "yield": 0.5}', '{"id": 2, "yield": 0.25}',
                '{"id": 3, "yield": 0.125}']
        reference = self.serve_result(good)["output"]
        cases = {
            "clean": good,
            "error line": good[:2] + ['{"id": 3, "error": "bad"}'],
            "changed answer": good[:2] + ['{"id": 3, "yield": 0.126}'],
            "missing answer": good[:2],
        }
        for name, lines in cases.items():
            tally = run.Tally()
            run.check_serve_pass(self.serve_result(lines), reference, tally,
                                 name)
            if name == "clean":
                self.assertEqual(tally.failed, 0, tally.problems)
            else:
                self.assertGreater(tally.failed, 0, name)
        tally = run.Tally()
        crashed = dict(self.serve_result(good), exit=1)
        run.check_serve_pass(crashed, reference, tally, "crashed")
        self.assertGreater(tally.failed, 0)


    def test_counted_runs(self):
        batch = self.tmp / "batch.jsonl"
        batch.write_text('{"id": 1, "q": "a"}\n{"id": 2, "q": "b"}\n'
                         '{"id": 3, "q": "a"}\n{"id": 4, "q": "b"}\n'
                         '{"id": 5, "q": "c"}\n')
        queries = run.batch_queries(batch)
        self.assertEqual(len(set(queries)), 3)
        output = "".join(f'{{"id": {i}, "runs": {runs}}}\n'
                         for i, runs in enumerate((1, 10, 1, 10, 100), 1))
        # Cold: b and c once; a is the set-up query, its repeat a cache hit.
        self.assertEqual(run.counted_runs(queries, output.encode(), True), 110)
        # Warm: every answer after the set-up line.
        self.assertEqual(run.counted_runs(queries, output.encode(), False),
                         121)

    def test_one_cpu_makes_one_pass(self):
        saved = run.nproc
        try:
            run.nproc = lambda: 1
            self.assertEqual(run.thread_counts(), (1,))
            run.nproc = lambda: 4
            self.assertEqual(run.thread_counts(), (4, 1))
        finally:
            run.nproc = saved


class CompareTest(unittest.TestCase):
    def records(self, values, metric="runs_per_s", disturbed=()):
        return [{"workload": "w", "metrics": {metric: {"value": v}},
                 "samples": {"disturbed": i in disturbed}}
                for i, v in enumerate(values)]

    def verdict(self, base, new, metric="runs_per_s"):
        catalog = compare.load_catalog()
        rows = compare.compare(self.records(base, metric),
                               self.records(new, metric), catalog)
        return rows[("w", metric)]

    def test_verdicts(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        def verdict(new):
            return self.verdict(base, new)["verdict"]

        self.assertEqual(verdict([v * 1.3 for v in base]), "better")
        self.assertEqual(verdict([v * 0.7 for v in base]), "worse")
        self.assertEqual(verdict([v + 0.5 for v in base]), "same")
        noisy = [60, 140, 80, 120, 100, 50, 150, 90, 110, 100]
        self.assertEqual(verdict(noisy), "unresolved")
        # A wide spread is not unresolved when every new run wins.
        wide_but_clear = [300, 500, 400, 350, 450, 320, 480, 410, 390, 360]
        self.assertEqual(verdict(wide_but_clear), "better")

    def test_disturbed_runs_are_unresolved(self):
        catalog = compare.load_catalog()
        base = self.records([100] * 4)

        def verdict(new):
            return compare.compare(base, new, catalog)[("w", "runs_per_s")][
                "verdict"]

        self.assertEqual(verdict(self.records([50] * 4, disturbed=(0, 1))),
                         "worse")
        self.assertEqual(
            verdict(self.records([50] * 4, disturbed=(0, 1, 2))),
            "unresolved")

    def test_direction_and_numbers(self):
        base = [10, 10, 10, 10]
        row = self.verdict(base, [8, 8, 8, 8], metric="latency_p50_ms")
        self.assertEqual(row["verdict"], "better")
        self.assertEqual(row["win_share"], 1.0)
        self.assertAlmostEqual(row["sgm_delta"], -0.2, places=2)
        row = self.verdict(base, [7, 7, 7, 7])  # higher is better here
        self.assertEqual(row["verdict"], "worse")
        self.assertEqual(row["win_share"], 0.0)
        row = self.verdict(base, [8, 8, 8, 8], metric="fault.inject_ns")
        self.assertEqual(row["verdict"], "-")  # per-layer: no bound

    def test_exit_code(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            base, new = Path(tmp) / "base.jsonl", Path(tmp) / "new.jsonl"
            base.write_text("".join(json.dumps(r) + "\n"
                                    for r in self.records([100] * 4)))
            new.write_text("".join(json.dumps(r) + "\n"
                                   for r in self.records([50] * 4)))
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(compare.main([str(base), str(base)]), 0)
                self.assertEqual(compare.main([str(base), str(new)]), 1)


class EndToEndTest(unittest.TestCase):
    def test_corrupted_golden_fails_the_run(self):
        run.BUILD_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            name, golden = run.CAMPAIGNS["operational_fig13"]
            corrupted = Path(tmp) / "golden.csv"
            rows = golden.read_text().splitlines()
            rows[-1] = rows[-1].replace("fig13_operational", "fig13_altered")
            corrupted.write_text("\n".join(rows) + "\n")
            saved = run.CAMPAIGNS["operational_fig13"]
            run.CAMPAIGNS["operational_fig13"] = (name, corrupted)
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = run.main(["--workload", "operational_fig13",
                                     "--seed", "1", "--seconds", "1",
                                     "--trace", "0"])
            finally:
                run.CAMPAIGNS["operational_fig13"] = saved
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
