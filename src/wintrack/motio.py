"""MOTChallenge-format file reading and writing.

File coordinates follow the MOTChallenge convention (1-based pixel
positions of the top-left corner); values are carried through as
continuous floats without re-quantization so existing ground-truth files
interoperate bit-exactly.

Row layouts:
  detections:   frame,id,x,y,w,h,conf,...        (id is -1)
  results:      frame,id,x,y,w,h,conf,-1,-1,-1   (id >= 1)
  ground truth: frame,id,x,y,w,h,flag,class,visibility

Extra trailing columns are ignored on read.  LF and CRLF are both accepted;
LF is emitted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .geometry import BoundingBox
from .trackers import Detection, TrackedDetection

logger = logging.getLogger(__name__)

PERSON_CLASS = 1


class MotFileError(ValueError):
    """Malformed MOT file content; message carries path and line number."""


@dataclass(frozen=True)
class MotRecord:
    """One parsed row.  For ground-truth files, ``confidence`` holds the
    0/1 consider flag."""

    frame: int
    track_id: int
    box: BoundingBox
    confidence: float
    class_id: int
    visibility: float


@dataclass(frozen=True)
class SequenceData:
    name: str
    frame_count: int
    records: tuple[MotRecord, ...]

    def evaluable(self) -> list[MotRecord]:
        """Ground-truth rows that take part in evaluation: considered
        (flag nonzero) person-class entries."""
        return [
            r for r in self.records
            if r.confidence != 0 and r.class_id == PERSON_CLASS
        ]


def _numbered_rows(path) -> Iterable[tuple[int, list[str]]]:
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            yield lineno, [f.strip() for f in line.split(",")]


def _parse_float(path, lineno, name, text) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MotFileError(
            f"{path}: line {lineno}: field {name!r} is not numeric: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise MotFileError(
            f"{path}: line {lineno}: field {name!r} must be finite: {text!r}"
        )
    return value


def _parse_int(path, lineno, name, text) -> int:
    value = _parse_float(path, lineno, name, text)
    if value != int(value):
        raise MotFileError(
            f"{path}: line {lineno}: field {name!r} must be an integer: {text!r}"
        )
    return int(value)


def _require_fields(path, lineno, fields, count):
    if len(fields) < count:
        raise MotFileError(
            f"{path}: line {lineno}: expected at least {count} comma-separated "
            f"fields, got {len(fields)}"
        )


def _parse_geometry(path, lineno, fields) -> tuple[float, float, float, float]:
    x = _parse_float(path, lineno, "x", fields[2])
    y = _parse_float(path, lineno, "y", fields[3])
    w = _parse_float(path, lineno, "w", fields[4])
    h = _parse_float(path, lineno, "h", fields[5])
    return x, y, w, h


def read_detections(path) -> dict[int, list[Detection]]:
    """Read a detection file, grouped by frame and ordered.

    Non-finite fields raise MotFileError.  Confidences outside [0, 1] are
    clamped (with a warning count); rows with non-positive width or height
    are rejected with a diagnostic.
    """
    grouped: dict[int, list[Detection]] = {}
    clamped = 0
    rejected = 0
    for lineno, fields in _numbered_rows(path):
        _require_fields(path, lineno, fields, 7)
        frame = _parse_int(path, lineno, "frame", fields[0])
        if frame < 1:
            raise MotFileError(f"{path}: line {lineno}: frame must be >= 1")
        x, y, w, h = _parse_geometry(path, lineno, fields)
        conf = _parse_float(path, lineno, "conf", fields[6])
        if w <= 0 or h <= 0:
            rejected += 1
            logger.warning(
                "%s: line %d: rejected detection with non-positive size "
                "w=%s h=%s", path, lineno, w, h,
            )
            continue
        if not 0.0 <= conf <= 1.0:
            clamped += 1
            conf = min(1.0, max(0.0, conf))
        grouped.setdefault(frame, []).append(
            Detection(frame, BoundingBox(x, y, w, h), conf)
        )
    if clamped:
        logger.warning("%s: clamped %d confidence values into [0, 1]", path, clamped)
    if rejected:
        logger.warning("%s: rejected %d rows with non-positive size", path, rejected)
    return dict(sorted(grouped.items()))


def _read_records(path, min_fields, parse_tail) -> SequenceData:
    records = []
    seen: set[tuple[int, int]] = set()
    for lineno, fields in _numbered_rows(path):
        _require_fields(path, lineno, fields, min_fields)
        frame = _parse_int(path, lineno, "frame", fields[0])
        if frame < 1:
            raise MotFileError(f"{path}: line {lineno}: frame must be >= 1")
        track_id = _parse_int(path, lineno, "id", fields[1])
        if track_id < 1:
            raise MotFileError(
                f"{path}: line {lineno}: track id must be >= 1, got {track_id}"
            )
        x, y, w, h = _parse_geometry(path, lineno, fields)
        if w <= 0 or h <= 0:
            raise MotFileError(
                f"{path}: line {lineno}: box sides must be positive, got w={w} h={h}"
            )
        if (frame, track_id) in seen:
            raise MotFileError(
                f"{path}: line {lineno}: duplicate (frame, id) pair "
                f"({frame}, {track_id})"
            )
        seen.add((frame, track_id))
        conf, class_id, visibility = parse_tail(path, lineno, fields)
        records.append(
            MotRecord(frame, track_id, BoundingBox(x, y, w, h), conf,
                      class_id, visibility)
        )
    records.sort(key=lambda r: (r.frame, r.track_id))
    frame_count = max((r.frame for r in records), default=0)
    return SequenceData(name=Path(path).stem, frame_count=frame_count,
                        records=tuple(records))


def read_ground_truth(path) -> SequenceData:
    """Read a ground-truth file.  All rows are parsed; use
    SequenceData.evaluable() for the subset evaluation considers."""

    def tail(p, lineno, fields):
        flag = _parse_float(p, lineno, "flag", fields[6])
        class_id = _parse_int(p, lineno, "class", fields[7])
        visibility = _parse_float(p, lineno, "visibility", fields[8])
        return flag, class_id, visibility

    return _read_records(path, 9, tail)


def read_results(path) -> SequenceData:
    """Read a tracker result file (detection layout with real track ids)."""

    def tail(p, lineno, fields):
        conf = _parse_float(p, lineno, "conf", fields[6])
        return conf, -1, -1.0

    return _read_records(path, 7, tail)


def write_results(path, tracked: Sequence[TrackedDetection]) -> None:
    """Write tracked detections as MOT result rows.

    Input must be sorted by (frame, id) with no duplicates.  Geometry is
    written with 2 decimals and confidence with 6; reading the file back
    reproduces the values exactly at that precision.
    """
    keys = [(td.frame, td.track_id) for td in tracked]
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ValueError("tracked detections must be sorted by (frame, id)")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for td in tracked:
            b = td.box
            fh.write(
                f"{td.frame},{td.track_id},{b.x:.2f},{b.y:.2f},"
                f"{b.w:.2f},{b.h:.2f},{td.confidence:.6f},-1,-1,-1\n"
            )


def write_detections(path, detections_by_frame: dict[int, list[Detection]]) -> None:
    """Write detections (id column -1) in frame order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for frame in sorted(detections_by_frame):
            for d in detections_by_frame[frame]:
                b = d.box
                fh.write(
                    f"{frame},-1,{b.x:.2f},{b.y:.2f},"
                    f"{b.w:.2f},{b.h:.2f},{d.confidence:.6f},-1,-1,-1\n"
                )


def write_ground_truth(path, sequence: SequenceData) -> None:
    """Write ground-truth rows (flag, class, visibility tail columns)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for r in sequence.records:
            b = r.box
            fh.write(
                f"{r.frame},{r.track_id},{b.x:.2f},{b.y:.2f},"
                f"{b.w:.2f},{b.h:.2f},{int(r.confidence)},{r.class_id},"
                f"{r.visibility:.2f}\n"
            )
