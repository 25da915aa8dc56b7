"""Unit tests of run.py's trace folding (python3 -m unittest test_run)."""

import unittest

from run import busy_ratios, quartiles, self_times, spans_of


class SelfTimeFold(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [(3, 1, "parent", 0.0, 100.0),
                 (3, 1, "child", 10.0, 30.0),
                 (3, 1, "grandchild", 12.0, 20.0),
                 (3, 1, "child", 50.0, 60.0)]
        t = self_times(spans)
        self.assertAlmostEqual(t["parent"], 70.0)
        self.assertAlmostEqual(t["child"], 22.0)
        self.assertAlmostEqual(t["grandchild"], 8.0)

    def test_tracks_do_not_nest_into_each_other(self):
        spans = [(1, 0, "forward", 0.0, 10.0), (1, 1, "forward", 2.0, 5.0)]
        self.assertAlmostEqual(self_times(spans)["forward"], 13.0)

    def test_child_overhanging_parent_is_clipped(self):
        t = self_times([(2, 100, "a", 0.0, 10.0), (2, 100, "b", 5.0, 15.0)])
        self.assertAlmostEqual(t["a"], 5.0)
        self.assertAlmostEqual(t["b"], 10.0)

    def test_begin_end_pairs_become_spans(self):
        events = [{"name": "forward", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0},
                  {"name": "forward", "ph": "E", "pid": 1, "tid": 0, "ts": 4.0},
                  {"name": "nn.attn", "ph": "X", "pid": 3, "tid": 4, "ts": 2.0, "dur": 1.5}]
        self.assertEqual(sorted(spans_of(events)),
                         [(1, 0, "forward", 1.0, 4.0), (3, 4, "nn.attn", 2.0, 3.5)])


class BusyRatio(unittest.TestCase):
    def test_window_clips_spans(self):
        ev = []
        for tid, name, a, b in [(0, "forward", 0, 60), (0, "wait.meta", 60, 100),
                                (1, "wait.act", 0, 50), (1, "forward", 50, 100)]:
            ev += [{"name": name, "ph": "B", "pid": 1, "tid": tid, "ts": a},
                   {"name": name, "ph": "E", "pid": 1, "tid": tid, "ts": b}]
        busy, bubble = busy_ratios(ev, 20.0, 100.0)
        self.assertAlmostEqual(busy[0], 0.5)
        self.assertAlmostEqual(busy[1], 50 / 80)
        self.assertAlmostEqual(bubble, (0.5 + 30 / 80) / 2)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertLess(q1, med)
        self.assertGreater(q3, med)


if __name__ == "__main__":
    unittest.main()
