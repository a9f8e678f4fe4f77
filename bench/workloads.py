"""The three workloads: set-up, one timed round, and the checks on it.

A round replays the workload's whole input through freshly built trackers,
so every round attempts the same operations; the runner repeats rounds
until the run's time is up.  Only calls into ``wintrack`` sit inside the
timed intervals.  Turning generated rows into detections and checking the
outputs happen between them.

Operations (closed loop, one caller, each starts when the last returns):

* crowd, stream: one window, i.e. the k ``push_frame`` calls whose last
  returns the window's corrected rows;
* score: one ``evaluate`` call on one sequence.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from wintrack import metrics, motio
from wintrack.geometry import BoundingBox
from wintrack.trackers import Detection, TrackerConfig, make_tracker
from wintrack.window import WindowedTracker

import checks
import scenes


@dataclass
class Round:
    op_s: list[float] = field(default_factory=list)   # per operation, in order
    extra_s: float = 0.0    # time inside wintrack calls between operations
    rows: int = 0           # input rows processed
    failed: int = 0
    history_rows: int = 0   # observations held by live tracklets at the end
    output_rows: int = 0
    matched_rows: int = 0   # output rows that carry a level-2 id
    problems: list[str] = field(default_factory=list)


def _timed(tracer, fn, *args):
    """Call fn as one operation; returns (result, seconds)."""
    span = tracer.begin("op") if tracer is not None else None
    t0 = perf_counter()
    result = fn(*args)
    t1 = perf_counter()
    if span is not None:
        tracer.end_span(span)
    return result, t1 - t0


def _report_failure(workload: str, exc: Exception) -> None:
    print(f"{workload}: operation failed: {exc!r}", file=sys.stderr)


def _key(td) -> tuple:
    b = td.box
    return (td.frame, b.x, b.y, b.w, b.h, td.confidence)


def _history_rows(wt: WindowedTracker) -> int:
    return sum(len(t.history) for t in (*wt.level1.tracks, *wt.level2.tracks))


def _push_window(wt: WindowedTracker, batch):
    emitted = None
    for frame, dets in batch:
        emitted = wt.push_frame(frame, dets)
    if emitted is None:
        raise RuntimeError(f"window ending at frame {batch[-1][0]} returned nothing")
    return emitted


class _Windowed:
    """What crowd and stream share: windows in, checked rows out."""

    name = ""
    level1 = level2 = ""    # tracker kinds
    k = 1
    frames = 0
    idf1_floor = 0.0

    def __init__(self):
        self.read_s = 0.0
        self.first_digests: list[str] | None = None
        self._first_round_digest: str | None = None

    def new_level1(self):
        return make_tracker(TrackerConfig(kind=self.level1))

    def new_tracker(self) -> WindowedTracker:
        return WindowedTracker(self.new_level1(),
                               make_tracker(TrackerConfig(kind=self.level2)), self.k)

    def _window_check(self, r: Round, wt, out, truth, pairs, digests, bridge=None):
        rows = [(td.frame, td.track_id, _key(td)) for td in out]
        r.problems += checks.ids_unique_per_frame(rows)
        targets, problems = checks.provenance(rows, truth)
        r.problems += problems
        for (frame, track_id, _), target in zip(rows, targets):
            pairs[(target, track_id)] += 1
            if bridge is not None and target is not None:
                bridge.feed(frame, target, track_id)
        level2_ids = {t.id for t in wt.level2.tracks}
        r.matched_rows += sum(1 for td in out if td.track_id in level2_ids)
        r.output_rows += len(out)
        digests.append(checks.rows_digest(k for _, _, k in rows))
        return rows

    def _close_round(self, r: Round, wt, pairs, digests, round_keys) -> None:
        r.history_rows = _history_rows(wt)
        idf1 = checks.idf1_from_pairs(pairs, r.rows, r.output_rows)
        r.problems += checks.idf1_floor(idf1, self.idf1_floor)
        digest = checks.rows_digest(round_keys)
        if self._first_round_digest is None:
            self._first_round_digest = digest
            self.first_digests = digests
            print(f"{self.name}: IDF1 from provenance {idf1:.4f}", file=sys.stderr)
        elif digest != self._first_round_digest:
            r.problems.append(f"{self.name}: round output differs from the first round")

    def completeness(self) -> list[str]:
        return self.against_level1(self.first_digests) if self.first_digests else []

    def against_level1(self, window_digests: list[str]) -> list[str]:
        """The corrector only relabels: per window, its rows must be exactly
        the rows a lone level-1 tracker emits on the same input."""
        level1 = self.new_level1()
        digests = []
        for batch in self.batches():
            keys = []
            for frame, dets in batch:
                keys += [_key(td) for td in level1.step(frame, dets)]
            digests.append(checks.rows_digest(keys))
        return checks.same_digests(f"{self.name}: rows against level 1 alone",
                                   window_digests, digests)

    def batches(self):
        raise NotImplementedError


class Crowd(_Windowed):
    """Dense offline scene: OC-SORT level 1, ByteTrack level 2, k=3, then
    sort and ``write_results``, the work of ``wintrack track``."""

    name = "crowd"
    level1, level2 = "ocsort", "bytetrack"
    k = scenes.CROWD_K
    frames = scenes.CROWD_FRAMES
    idf1_floor = checks.CROWD_IDF1_FLOOR

    def __init__(self, data_dir: Path, seed: int):
        super().__init__()
        self.data_dir = data_dir
        t0 = perf_counter()
        self.detections = motio.read_detections(data_dir / "det.txt")
        self.read_s = perf_counter() - t0
        self._tracker = self.new_tracker()
        self.rows = sum(len(d) for d in self.detections.values())

    def load_truth(self) -> None:
        """Detection key -> target, read from the files the benchmark wrote."""
        self.truth = {}
        with open(self.data_dir / "det.txt", encoding="utf-8") as det, \
                open(self.data_dir / "truth.txt", encoding="utf-8") as tgt:
            for line, target in zip(det, tgt):
                f = line.split(",")
                key = (int(f[0]), float(f[2]), float(f[3]), float(f[4]),
                       float(f[5]), float(f[6]))
                self.truth[key] = int(target)

    def batches(self):
        dets = self.detections
        for first in range(1, self.frames + 1, self.k):
            yield [(f, dets.get(f, [])) for f in range(first, first + self.k)]

    def run_round(self, tracer=None) -> Round:
        wt = self._tracker or self.new_tracker()
        self._tracker = None
        r = Round(rows=self.rows)
        pairs: Counter = Counter()
        digests: list[str] = []
        out = []
        try:
            for batch in self.batches():
                emitted, dt = _timed(tracer, _push_window, wt, batch)
                r.op_s.append(dt)
                self._window_check(r, wt, emitted, self.truth, pairs, digests)
                out.extend(emitted)
            t0 = perf_counter()
            out.extend(wt.flush())
            out.sort(key=lambda td: (td.frame, td.track_id))
            motio.write_results(self.data_dir / "res.txt", out)
            r.extra_s = perf_counter() - t0
        except Exception as exc:  # counted, and the rest of the round skipped
            _report_failure(self.name, exc)
            r.failed += 1
            return r
        with open(self.data_dir / "res.txt", encoding="utf-8") as fh:
            written = [tuple(int(v) for v in line.split(",", 2)[:2]) for line in fh]
        if written != [(td.frame, td.track_id) for td in out]:
            r.problems.append("crowd: res.txt does not hold the sorted output rows")
        self._close_round(r, wt, pairs, digests,
                          ((td.frame, td.track_id, _key(td)) for td in out))
        return r


class Stream(_Windowed):
    """Long, sparse online replay: ByteTrack level 1, OC-SORT level 2, k=5.

    Frames are made one window at a time and each window's output is
    checked, counted and dropped, so what grows is the program's state.
    """

    name = "stream"
    level1, level2 = "bytetrack", "ocsort"
    k = scenes.STREAM_K
    frames = scenes.STREAM_FRAMES
    idf1_floor = checks.STREAM_IDF1_FLOOR

    def __init__(self, data_dir: Path, seed: int):
        super().__init__()
        self.seed = seed
        self._tracker = self.new_tracker()

    def load_truth(self) -> None:
        pass    # made with the frames

    def windows(self, scene):
        """(batch, truth) per window; truth maps detection key -> target."""
        for first in range(1, self.frames + 1, self.k):
            batch, truth = [], {}
            for f in range(first, first + self.k):
                dets = []
                for target, x, y, w, h, c in scene.frame(f):
                    dets.append(Detection(f, BoundingBox(x, y, w, h), c))
                    truth[(f, x, y, w, h, c)] = target
                batch.append((f, dets))
            yield batch, truth

    def batches(self):
        for batch, _ in self.windows(scenes.StreamScene(self.seed)):
            yield batch

    def run_round(self, tracer=None) -> Round:
        wt = self._tracker or self.new_tracker()
        self._tracker = None
        r = Round()
        pairs: Counter = Counter()
        digests: list[str] = []
        round_digest = []
        scene = scenes.StreamScene(self.seed)
        bridge = checks.BridgeCheck(scene.gaps, *scenes.BRIDGE_CHECK)
        try:
            for batch, truth in self.windows(scene):
                r.rows += len(truth)
                emitted, dt = _timed(tracer, _push_window, wt, batch)
                r.op_s.append(dt)
                rows = self._window_check(r, wt, emitted, truth, pairs, digests, bridge)
                round_digest.append(checks.rows_digest(rows))
            t0 = perf_counter()
            tail = wt.flush()
            r.extra_s = perf_counter() - t0
        except Exception as exc:  # counted, and the rest of the round skipped
            _report_failure(self.name, exc)
            r.failed += 1
            return r
        if tail:
            r.problems.append(f"stream: flush returned {len(tail)} rows after whole windows")
        r.problems += bridge.finish()
        if self._first_round_digest is None:
            print(f"stream: {bridge.checked} gaps bridged", file=sys.stderr)
        self._close_round(r, wt, pairs, digests, round_digest)
        return r


class Score:
    """Dataset scoring: ``evaluate`` once per sequence, on result files
    made from ground truth by known edits."""

    name = "score"

    def __init__(self, data_dir: Path, seed: int):
        self.data_dir = data_dir
        self.read_s = 0.0
        self.sequences = []
        self.rows = 0
        for s in range(scenes.SCORE_SEQUENCES):
            t0 = perf_counter()
            gt = motio.read_ground_truth(data_dir / f"seq{s:03d}-gt.txt")
            res = motio.read_results(data_dir / f"seq{s:03d}-res.txt")
            self.read_s += perf_counter() - t0
            evaluable = gt.evaluable()
            self.rows += len(evaluable) + len(res.records)
            self.sequences.append((metrics.frames_from_records(evaluable),
                                   metrics.frames_from_records(res.records)))

    def load_truth(self) -> None:
        text = (self.data_dir / "expected.json").read_text(encoding="utf-8")
        self.expected = json.loads(text)

    def run_round(self, tracer=None) -> Round:
        r = Round(rows=self.rows)
        for s, (gt, pred) in enumerate(self.sequences):
            try:
                report, dt = _timed(tracer, metrics.evaluate, gt, pred)
            except Exception as exc:  # counted; the other sequences still run
                _report_failure(self.name, exc)
                r.failed += 1
                continue
            r.op_s.append(dt)
            r.problems += score_problems(report, self.expected[s], f"score: sequence {s}")
        return r

    def completeness(self) -> list[str]:
        return []


def score_problems(report, expected: dict, label: str) -> list[str]:
    """Checks on one ``evaluate`` report against the counts its result
    file was built to give."""
    c, i = report.clear, report.identity
    counts = {"gt_det": c.gt_det, "tp": c.tp, "fp": c.fp, "fn": c.fn,
              "idsw": c.idsw, "idtp": i.idtp, "idfp": i.idfp, "idfn": i.idfn}
    acc = report.hota_acc
    return (checks.score_counts(counts, expected, label)
            + checks.hota_properties([float(v) for v in acc.det_a_per_alpha()],
                                     [float(v) for v in acc.ass_a_per_alpha()],
                                     expected, label))


WORKLOADS = {"crowd": Crowd, "stream": Stream, "score": Score}
