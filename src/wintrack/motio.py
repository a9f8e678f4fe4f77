"""MOTChallenge-format file reading and writing.

File coordinates follow the MOTChallenge convention (1-based pixel
positions of the top-left corner); values are carried through as
continuous floats without re-quantization so existing ground-truth files
interoperate bit-exactly.

Every file kind shares one row layout, ``frame,id,x,y,w,h,...``, and
differs only in its tail columns:
  detections:   conf,-1,-1,-1               (id is -1)
  results:      conf,-1,-1,-1               (id >= 1)
  ground truth: flag,class,visibility

One parser reads the leading fields each kind names (``_rows``) and one
writer formats the shared prefix (``_write``).  Extra trailing columns are
ignored on read.  LF and CRLF are both accepted; LF is emitted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .geometry import BoundingBox
from .trackers import Detection, TrackedDetection

logger = logging.getLogger(__name__)

PERSON_CLASS = 1

# The leading fields each reader parses; detection and result files share one.
_DETECTION_FIELDS = ("frame", "id", "x", "y", "w", "h", "conf")
_GROUND_TRUTH_FIELDS = ("frame", "id", "x", "y", "w", "h", "flag", "class",
                        "visibility")
_WHOLE_FIELDS = frozenset({"frame", "id", "class"})


class MotFileError(ValueError):
    """Malformed MOT file content; message carries path and line number."""


@dataclass(frozen=True)
class MotRecord:
    """One parsed row.  For ground-truth files, ``confidence`` holds the
    0/1 consider flag; result rows carry no class or visibility (-1)."""

    frame: int
    track_id: int
    box: BoundingBox
    confidence: float
    class_id: int = -1
    visibility: float = -1.0


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


def _error(path, lineno: int, what: str) -> MotFileError:
    return MotFileError(f"{path}: line {lineno}: {what}")


def _rows(path, names: Sequence[str]) -> Iterator[tuple[int, list]]:
    """Yield (line number, values) for each non-blank line of a MOT file.

    ``values`` holds the leading fields named by ``names`` as finite floats;
    frame, id and class are whole numbers and come back as ints, and a frame
    is at least 1.  The first bad field in column order raises MotFileError.
    """
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) < len(names):
                raise _error(path, lineno, f"expected at least {len(names)} "
                             f"comma-separated fields, got {len(fields)}")
            values = []
            for name, text in zip(names, fields):
                text = text.strip()
                try:
                    value = float(text)
                except ValueError:
                    raise _error(path, lineno, f"field {name!r} is not numeric: "
                                 f"{text!r}") from None
                if not math.isfinite(value):
                    raise _error(path, lineno, f"field {name!r} must be finite: "
                                 f"{text!r}")
                if name in _WHOLE_FIELDS:
                    if value != int(value):
                        raise _error(path, lineno, f"field {name!r} must be an "
                                     f"integer: {text!r}")
                    value = int(value)
                values.append(value)
            if values[0] < 1:
                raise _error(path, lineno, "frame must be >= 1")
            yield lineno, values


def read_detections(path) -> dict[int, list[Detection]]:
    """Read a detection file, grouped by frame and ordered.

    Non-finite fields and a fractional frame or id raise MotFileError.
    Confidences outside [0, 1] are clamped (with a warning count); rows
    with non-positive width or height are rejected with a diagnostic.
    """
    grouped: dict[int, list[Detection]] = {}
    clamped = 0
    rejected = 0
    for lineno, (frame, _, x, y, w, h, conf) in _rows(path, _DETECTION_FIELDS):
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


def _read_records(path, names: Sequence[str]) -> SequenceData:
    records = []
    seen: set[tuple[int, int]] = set()
    for lineno, (frame, track_id, x, y, w, h, *tail) in _rows(path, names):
        if track_id < 1:
            raise _error(path, lineno, f"track id must be >= 1, got {track_id}")
        if w <= 0 or h <= 0:
            raise _error(path, lineno, f"box sides must be positive, got w={w} h={h}")
        if (frame, track_id) in seen:
            raise _error(path, lineno, "duplicate (frame, id) pair "
                         f"({frame}, {track_id})")
        seen.add((frame, track_id))
        records.append(MotRecord(frame, track_id, BoundingBox(x, y, w, h), *tail))
    records.sort(key=lambda r: (r.frame, r.track_id))
    frame_count = max((r.frame for r in records), default=0)
    return SequenceData(name=Path(path).stem, frame_count=frame_count,
                        records=tuple(records))


def read_ground_truth(path) -> SequenceData:
    """Read a ground-truth file.  All rows are parsed; use
    SequenceData.evaluable() for the subset evaluation considers."""
    return _read_records(path, _GROUND_TRUTH_FIELDS)


def read_results(path) -> SequenceData:
    """Read a tracker result file (detection layout with real track ids)."""
    return _read_records(path, _DETECTION_FIELDS)


def _write(path, rows: Iterable[tuple[int, int, BoundingBox, str]]) -> None:
    """Write (frame, id, box, formatted tail) rows, the box with 2 decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for frame, track_id, b, tail in rows:
            fh.write(
                f"{frame},{track_id},{b.x:.2f},{b.y:.2f},{b.w:.2f},{b.h:.2f},"
                f"{tail}\n"
            )


def write_results(path, tracked: Sequence[TrackedDetection]) -> None:
    """Write tracked detections as MOT result rows.

    Input must be sorted by (frame, id) with no duplicates.  Geometry is
    written with 2 decimals and confidence with 6; reading the file back
    reproduces the values exactly at that precision.
    """
    keys = [(td.frame, td.track_id) for td in tracked]
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ValueError("tracked detections must be sorted by (frame, id)")
    _write(path, ((td.frame, td.track_id, td.box, f"{td.confidence:.6f},-1,-1,-1")
                  for td in tracked))


def write_detections(path, detections_by_frame: dict[int, list[Detection]]) -> None:
    """Write detections (id column -1) in frame order."""
    _write(path, ((frame, -1, d.box, f"{d.confidence:.6f},-1,-1,-1")
                  for frame in sorted(detections_by_frame)
                  for d in detections_by_frame[frame]))


def write_ground_truth(path, sequence: SequenceData) -> None:
    """Write ground-truth rows (flag, class, visibility tail columns)."""
    _write(path, ((r.frame, r.track_id, r.box,
                   f"{int(r.confidence)},{r.class_id},{r.visibility:.2f}")
                  for r in sequence.records))
