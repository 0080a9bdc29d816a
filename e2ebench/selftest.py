#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic and names.

Run from the root of a checkout::

    python3 e2ebench/selftest.py

Needs nothing from ``repro``: it checks span self time on a synthetic
tree, the percentile helper, the host-speed calibration arithmetic, and
that every metric name and unit in BENCHMARK.json follows the grammar
and matches the tables the run prints from.
"""

from __future__ import annotations

import gc
import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Recorder, Span, children_index, covered, self_time  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _span(id, start, end, parent=None, name="x"):
    return Span(id=id, name=name, start=start, end=end, parent=parent,
                cell=None, phase="root")


class SelfTime(unittest.TestCase):
    def test_disjoint_children(self):
        root = _span(0, 0.0, 10.0)
        kids = [_span(1, 1.0, 3.0, 0), _span(2, 4.0, 5.0, 0)]
        self.assertAlmostEqual(self_time(root, kids), 7.0)

    def test_overlapping_children_count_once(self):
        root = _span(0, 0.0, 10.0)
        kids = [_span(1, 1.0, 3.0, 0), _span(2, 2.0, 5.0, 0)]
        self.assertAlmostEqual(covered(root, kids), 4.0)
        self.assertAlmostEqual(self_time(root, kids), 6.0)

    def test_children_clipped_to_parent(self):
        root = _span(0, 0.0, 10.0)
        kids = [_span(1, -2.0, 1.0, 0), _span(2, 9.0, 12.0, 0)]
        self.assertAlmostEqual(self_time(root, kids), 8.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 6.0, 0),
                 _span(2, 3.0, 4.0, 1)]
        kids = children_index(spans)
        self.assertAlmostEqual(self_time(spans[0], kids[0]), 6.0)
        self.assertAlmostEqual(self_time(spans[1], kids[1]), 3.0)
        self.assertAlmostEqual(self_time(spans[2], kids.get(2, ())), 1.0)
        total_self = sum(self_time(s, kids.get(s.id, ())) for s in spans)
        self.assertAlmostEqual(total_self, spans[0].duration)

    def test_no_children(self):
        root = _span(0, 1.0, 4.0)
        self.assertEqual(covered(root, []), 0.0)
        self.assertAlmostEqual(self_time(root, []), 3.0)


class RecorderNesting(unittest.TestCase):
    def test_parent_cell_and_phase_inherited(self):
        rec = Recorder()
        with rec.span("pass"):
            with rec.span("cell", cell="a/b"):
                with rec.span("faults.inject"):
                    rec.count("n", 2)
        root, cell, leaf = rec.spans
        self.assertIsNone(root.parent)
        self.assertEqual(leaf.parent, cell.id)
        self.assertEqual(leaf.cell, "a/b")
        self.assertEqual({s.phase for s in rec.spans}, {"pass"})
        self.assertEqual(rec.counters[("pass", "n")], 2)
        self.assertTrue(root.start <= leaf.start <= leaf.end <= root.end)

    def test_outermost_skips_recursion(self):
        rec = Recorder()
        with rec.span("setup.warm"):
            with rec.span("cpu.decode"):
                with rec.span("cpu.decode"):
                    pass
            with rec.span("cpu.decode"):
                pass
        found = layers.Layers(rec).outermost("cpu.decode", "setup.warm")
        self.assertEqual([s.id for s in found], [1, 3])


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(layers.percentile(values, 50), 50)
        self.assertEqual(layers.percentile(values, 99), 99)
        self.assertEqual(layers.percentile([], 50), 0.0)
        self.assertEqual(layers.percentile([7.0], 99), 7.0)


class Calibration(unittest.TestCase):
    def test_normalize_scales_by_the_loop(self):
        ref = hostclock.REFERENCE_S
        # The loop ran at half the quiet host's speed: halve the time.
        clock = hostclock.HostClock([2 * ref, 3 * ref, ref])
        self.assertAlmostEqual(clock.spent, 6 * ref)
        self.assertAlmostEqual(clock.normalize(4.0), 2.0)
        self.assertAlmostEqual(hostclock.HostClock([ref]).normalize(1.5), 1.5)

    def test_tick_keeps_a_sample_and_the_collector_state(self):
        clock = hostclock.HostClock()
        clock.tick()
        self.assertEqual(len(clock.samples), 1)
        self.assertGreater(clock.samples[0], 0.0)
        self.assertTrue(gc.isenabled())


class Names(unittest.TestCase):
    def setUp(self):
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def test_grammar(self):
        names = ([w["name"] for w in self.spec["workloads"]]
                 + [m["name"] for m in self.spec["end_to_end"]]
                 + [m["name"] for m in self.spec["per_layer"]])
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))

    def test_grammar_rejects(self):
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65):
            self.assertNotRegex(bad, NAME)

    def test_tables_match_benchmark_json(self):
        e2e = {m["name"]: (m["unit"], m["better"])
               for m in self.spec["end_to_end"]}
        per_layer = {m["name"]: (m["unit"], m["better"])
                     for m in self.spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(per_layer, layers.PER_LAYER)
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]},
                             set(run.WORKLOAD_NAMES))


if __name__ == "__main__":
    unittest.main()
