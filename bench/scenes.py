"""Seeded inputs for the three benchmark workloads.

Everything here uses numpy only, never ``wintrack``, so the inputs do not
change when the program under test changes.  The shape of each input (how
many targets, frames and sequences, the noise rates) is fixed; the seed
moves only positions, speeds, sizes and which rows the noise hits, so every
seed asks for about the same amount of work.

* ``crowd``: one dense scene written as a MOTChallenge detection file plus
  a provenance file naming the target behind every detection row.
* ``stream``: a lazy frame-by-frame generator of a long, sparse scene whose
  targets pause out of sight for longer than a per-frame tracker's patience.
* ``score``: many short ground-truth sequences and result files derived
  from them by known edits, with the metric counts those edits imply.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIELD_W = 1920.0
FIELD_H = 1080.0

# --- crowd -------------------------------------------------------------------

CROWD_TARGETS = 40          # concurrent targets at every frame
CROWD_FRAMES = 180          # a multiple of CROWD_K
CROWD_K = 3
CROWD_LIFETIME = 600       # frames a walker takes to cross the field
CROWD_JITTER = 1.0          # px, std of the position noise
CROWD_DROPOUT = 0.04
CROWD_DIP_PROB = 0.3        # share of targets with one confidence dip


def _seed_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _fmt_det(frame, x, y, w, h, conf) -> str:
    return f"{frame},-1,{x:.2f},{y:.2f},{w:.2f},{h:.2f},{conf:.6f},-1,-1,-1\n"


def _border_point(rng, side: int, half_w: float, half_h: float):
    if side == 0:
        return half_w, rng.uniform(half_h, FIELD_H - half_h)
    if side == 1:
        return FIELD_W - half_w, rng.uniform(half_h, FIELD_H - half_h)
    if side == 2:
        return rng.uniform(half_w, FIELD_W - half_w), half_h
    return rng.uniform(half_w, FIELD_W - half_w), FIELD_H - half_h


def crowd_rows(seed: int) -> list[tuple]:
    """Detection rows (frame, target, x, y, w, h, conf) of the crowd scene.

    Each of CROWD_TARGETS slots holds one walker at a time who crosses the
    field to the opposite border in CROWD_LIFETIME frames; when one
    leaves, a new one (a new target id) enters in the next frame, so the
    number of targets present never changes.  The first walkers start at
    evenly staggered points of their paths, so walkers leave at a steady
    rate and the number of tracks a tracker holds barely depends on the
    seed.  Paths cross at random.  Detections carry position jitter,
    random dropout and, for some walkers, a short confidence dip.
    """
    rng = _seed_rng(seed, 1)
    rows = []
    next_target = 1
    for slot in range(CROWD_TARGETS):
        frame = 1
        phase = int((slot + rng.random()) / CROWD_TARGETS * CROWD_LIFETIME)
        while frame <= CROWD_FRAMES:
            w = rng.uniform(30.0, 46.0)
            h = w * rng.uniform(2.0, 2.4)
            side = int(rng.integers(4))
            x0, y0 = _border_point(rng, side, w / 2, h / 2)
            x1, y1 = _border_point(rng, side ^ 1, w / 2, h / 2)
            length = CROWD_LIFETIME
            dip_at = dip_len = -1
            if rng.random() < CROWD_DIP_PROB:
                dip_at = int(rng.integers(length))
                dip_len = int(rng.integers(3, 9))
            dip_conf = rng.uniform(0.2, 0.5)
            target = next_target
            next_target += 1
            for step in range(phase, length):
                if frame > CROWD_FRAMES:
                    break
                f = step / (length - 1)
                cx = x0 + (x1 - x0) * f + rng.normal(0.0, CROWD_JITTER)
                cy = y0 + (y1 - y0) * f + rng.normal(0.0, CROWD_JITTER)
                conf = rng.uniform(0.7, 1.0)
                if dip_at <= step < dip_at + dip_len:
                    conf = dip_conf
                if rng.random() >= CROWD_DROPOUT:
                    rows.append((frame, target, cx - w / 2, cy - h / 2, w, h, conf))
                frame += 1
            phase = 0
    rows.sort(key=lambda r: (r[0], r[1]))
    return _unique_rows(rows)


def _unique_rows(rows):
    """Drop any row whose printed (frame, box, conf) repeats an earlier one,
    so that a printed row names exactly one target."""
    seen = set()
    out = []
    for r in rows:
        key = _row_key(r[0], *r[2:])
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def _row_key(frame, x, y, w, h, conf):
    return (frame, f"{x:.2f}", f"{y:.2f}", f"{w:.2f}", f"{h:.2f}", f"{conf:.6f}")


def write_crowd(seed: int, out_dir: Path) -> None:
    """Write det.txt (MOT detections) and truth.txt (one target id a row)."""
    rows = crowd_rows(seed)
    with open(out_dir / "det.txt", "w", encoding="utf-8", newline="") as det, \
            open(out_dir / "truth.txt", "w", encoding="utf-8", newline="") as truth:
        for frame, target, x, y, w, h, conf in rows:
            det.write(_fmt_det(frame, x, y, w, h, conf))
            truth.write(f"{target}\n")


# --- stream ------------------------------------------------------------------

STREAM_TARGETS = 10
STREAM_FRAMES = 3000        # a multiple of STREAM_K
STREAM_K = 5
STREAM_JITTER = 0.8
STREAM_DROPOUT = 0.03
STREAM_LANE = FIELD_H / STREAM_TARGETS   # each target walks its own lane
STREAM_BOX = (36.0, 72.0)
# A hide lasts longer than level 1's max_age (30 frames) and well under
# level 2's reach (max_age 30 windows of STREAM_K frames).
STREAM_HIDE = (45, 90)
STREAM_PAUSE_BEFORE = 20    # still frames before a hide
STREAM_PAUSE_AFTER = 50     # still frames after a hide
# Frames before a hide, and the range of frames after reappearance, that
# must share an id (see checks.BridgeCheck).
BRIDGE_CHECK = (150, 25, 75)


@dataclass(frozen=True)
class Gap:
    target: int
    first_hidden: int
    last_hidden: int


class StreamScene:
    """Lazy generator of the stream workload: ``frame(f)`` yields rows.

    Target i walks left and right along lane i at a steady speed, stops,
    vanishes for STREAM_HIDE frames while standing still, reappears where
    it vanished and walks on.  The schedule is drawn once from the seed
    (a few hundred numbers); per-frame noise is drawn as frames are asked
    for, in frame order, so the whole stream is never held in memory.
    """

    def __init__(self, seed: int):
        rng = _seed_rng(seed, 2)
        self._rng = _seed_rng(seed, 3)
        self._next_frame = 1
        self.gaps: list[Gap] = []
        self._plans = []
        for target in range(1, STREAM_TARGETS + 1):
            segments = []   # (start, end, x0, x1, hidden_from, hidden_to)
            x = rng.uniform(200.0, FIELD_W - 200.0)
            direction = 1.0 if rng.random() < 0.5 else -1.0
            frame = 1
            while frame <= STREAM_FRAMES:
                walk = int(rng.integers(150, 400))
                speed = rng.uniform(0.3, 1.0)
                end_x = x + direction * speed * walk
                lo, hi = 60.0, FIELD_W - 60.0
                if not lo <= end_x <= hi:
                    end_x = min(hi, max(lo, end_x))
                    direction = -direction
                segments.append((frame, frame + walk - 1, x, end_x, 0, -1))
                frame += walk
                x = end_x
                hide = int(rng.integers(*STREAM_HIDE))
                pause = STREAM_PAUSE_BEFORE + hide + STREAM_PAUSE_AFTER
                first_hidden = frame + STREAM_PAUSE_BEFORE
                last_hidden = first_hidden + hide - 1
                segments.append((frame, frame + pause - 1, x, x,
                                 first_hidden, last_hidden))
                if last_hidden + BRIDGE_CHECK[2] <= STREAM_FRAMES:
                    self.gaps.append(Gap(target, first_hidden, last_hidden))
                frame += pause
            dip_at = int(rng.integers(1, STREAM_FRAMES))
            self._plans.append((target, STREAM_LANE * (target - 0.5),
                                segments, dip_at))
        self.gaps.sort(key=lambda g: (g.first_hidden, g.target))

    def frame(self, frame: int) -> list[tuple[int, float, float, float, float, float]]:
        """Rows (target, x, y, w, h, conf) of one frame; frames in order."""
        if frame != self._next_frame:
            raise ValueError(f"frames must be asked for in order, got {frame}")
        self._next_frame += 1
        rng = self._rng
        w, h = STREAM_BOX
        noise = rng.normal(0.0, STREAM_JITTER, size=(STREAM_TARGETS, 2))
        keep = rng.random(STREAM_TARGETS) >= STREAM_DROPOUT
        conf = rng.uniform(0.7, 1.0, size=STREAM_TARGETS)
        rows = []
        for i, (target, cy, segments, dip_at) in enumerate(self._plans):
            for start, end, x0, x1, hide_from, hide_to in segments:
                if start <= frame <= end:
                    break
            if hide_from <= frame <= hide_to or not keep[i]:
                continue
            cx = x0 + (x1 - x0) * (frame - start) / max(1, end - start)
            c = 0.35 if dip_at <= frame < dip_at + 6 else float(conf[i])
            rows.append((target, float(cx + noise[i, 0] - w / 2),
                         float(cy + noise[i, 1] - h / 2), w, h, c))
        return rows


# --- score -------------------------------------------------------------------

SCORE_SEQUENCES = 60
SCORE_FRAMES = 40
SCORE_DENSITY = (2, 24)     # targets per sequence, spread evenly over the set
SCORE_DROP = 0.05           # result rows removed (false negatives)
SCORE_FRAGMENT = 0.4        # share of targets whose result id changes
SCORE_SPURIOUS = 0.25       # chance per frame of one spurious box
SCORE_JITTER = 2.0          # px, uniform bound of result position noise
# The field is cut into cells; a target moves inside its own cell, so boxes
# of different targets never overlap and every count follows from the edits.
CELL_W = 80.0
CELL_H = 120.0
CELL_COLS = int(FIELD_W // CELL_W)
CELL_ROWS = int(FIELD_H // CELL_H)
SCORE_BOX = (36.0, 72.0)


def _fmt_gt(frame, tid, x, y, w, h) -> str:
    return f"{frame},{tid},{x:.2f},{y:.2f},{w:.2f},{h:.2f},1,1,1.00\n"


def _fmt_res(frame, tid, x, y, w, h, conf) -> str:
    return f"{frame},{tid},{x:.2f},{y:.2f},{w:.2f},{h:.2f},{conf:.6f},-1,-1,-1\n"


def score_sequence(rng: np.random.Generator, density: int):
    """One sequence: (gt rows, result rows, expected counts).

    Rows are (frame, id, x, y, w, h[, conf]).  The expected counts follow
    from the edits alone: every kept result row overlaps its own target's
    box with IoU above 0.7 and no other box at all.
    """
    w, h = SCORE_BOX
    cells = rng.permutation(CELL_COLS * CELL_ROWS)
    target_cells = cells[:density]
    free_cells = cells[density:]
    gt, res = [], []
    next_pid = 1
    gt_len, pred_len, pairs = {}, {}, {}
    tp = fn = idsw = idtp = 0
    # Room a box has to move inside its cell after jitter.
    span_x = (CELL_W - w) / 2 - SCORE_JITTER - 1.0
    span_y = (CELL_H - h) / 2 - SCORE_JITTER - 1.0
    for gid, cell in enumerate(target_cells, start=1):
        ccx = (cell % CELL_COLS + 0.5) * CELL_W
        ccy = (cell // CELL_COLS + 0.5) * CELL_H
        first = int(rng.integers(1, SCORE_FRAMES // 3))
        last = int(rng.integers(2 * SCORE_FRAMES // 3, SCORE_FRAMES + 1))
        ax, ay = rng.uniform(-span_x, span_x), rng.uniform(-span_y, span_y)
        bx, by = rng.uniform(-span_x, span_x), rng.uniform(-span_y, span_y)
        frames = list(range(first, last + 1))
        # Result ids: one per fragment; a target split in three may return
        # to its first id (A, B, A), which counts two switches.
        cuts = []
        if rng.random() < SCORE_FRAGMENT:
            n_cuts = int(rng.integers(1, 3))
            cuts = sorted(int(c) for c in rng.choice(
                np.arange(1, len(frames)), size=n_cuts, replace=False))
        ids = [next_pid]
        next_pid += 1
        for c in range(len(cuts)):
            if c == 1 and rng.random() < 0.5:
                ids.append(ids[0])
            else:
                ids.append(next_pid)
                next_pid += 1
        gt_len[gid] = len(frames)
        prev_pid = None
        counts = {}
        for n, frame in enumerate(frames):
            f = n / max(1, len(frames) - 1)
            cx = ccx + ax + (bx - ax) * f
            cy = ccy + ay + (by - ay) * f
            gt.append((frame, gid, cx - w / 2, cy - h / 2, w, h))
            if rng.random() < SCORE_DROP:
                fn += 1
                continue
            pid = ids[sum(1 for c in cuts if n >= c)]
            jx, jy = rng.uniform(-SCORE_JITTER, SCORE_JITTER, size=2)
            res.append((frame, pid, cx + jx - w / 2, cy + jy - h / 2, w, h,
                        rng.uniform(0.5, 1.0)))
            tp += 1
            if prev_pid is not None and pid != prev_pid:
                idsw += 1
            prev_pid = pid
            counts[pid] = counts.get(pid, 0) + 1
        for pid, n in counts.items():
            pred_len[pid] = n
            pairs[(gid, pid)] = n
        idtp += max(counts.values(), default=0)
    fp = 0
    for frame in range(1, SCORE_FRAMES + 1):
        if rng.random() < SCORE_SPURIOUS:
            cell = int(free_cells[int(rng.integers(len(free_cells)))])
            cx = (cell % CELL_COLS + 0.5) * CELL_W
            cy = (cell // CELL_COLS + 0.5) * CELL_H
            res.append((frame, next_pid, cx - w / 2, cy - h / 2, w, h,
                        rng.uniform(0.5, 1.0)))
            pred_len[next_pid] = 1
            next_pid += 1
            fp += 1
    # Shuffle result ids so that they say nothing about the targets.
    order = rng.permutation(next_pid - 1) + 1
    remap = {old: int(order[old - 1]) for old in range(1, next_pid)}
    res = [(f, remap[p], *rest) for f, p, *rest in res]
    gt_rows = len(gt)
    pred_rows = len(res)
    ass_sum = sum(n * n / (gt_len[g] + pred_len[p] - n) for (g, p), n in pairs.items())
    expected = {
        "gt_det": gt_rows, "tp": tp, "fp": fp, "fn": fn, "idsw": idsw,
        "idtp": idtp, "idfp": pred_rows - idtp, "idfn": gt_rows - idtp,
        "det_a_low": tp / (tp + fn + fp),
        "ass_a_low": ass_sum / tp if tp else 0.0,
        "rows": gt_rows + pred_rows,
    }
    gt.sort(key=lambda r: (r[0], r[1]))
    res.sort(key=lambda r: (r[0], r[1]))
    return gt, res, expected


def score_densities() -> list[int]:
    lo, hi = SCORE_DENSITY
    return [lo + (hi - lo) * s // (SCORE_SEQUENCES - 1) for s in range(SCORE_SEQUENCES)]


def write_score(seed: int, out_dir: Path) -> None:
    """Write seqNNN-gt.txt / seqNNN-res.txt pairs and expected.json."""
    rng = _seed_rng(seed, 4)
    expected = []
    for s, density in enumerate(score_densities()):
        gt, res, exp = score_sequence(rng, density)
        with open(out_dir / f"seq{s:03d}-gt.txt", "w", encoding="utf-8",
                  newline="") as fh:
            fh.writelines(_fmt_gt(*r) for r in gt)
        with open(out_dir / f"seq{s:03d}-res.txt", "w", encoding="utf-8",
                  newline="") as fh:
            fh.writelines(_fmt_res(*r) for r in res)
        expected.append(exp)
    (out_dir / "expected.json").write_text(json.dumps(expected), encoding="utf-8")


WRITERS = {"crowd": write_crowd, "score": write_score}


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Write the input files of a file-based workload.")
    parser.add_argument("--workload", choices=sorted(WRITERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    WRITERS[args.workload](args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
