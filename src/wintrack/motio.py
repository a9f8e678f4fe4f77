"""The package's row types and MOTChallenge-format file reading and writing.

``Detection`` is one detector output and ``MotRecord`` one tracked row:
trackers take the one and emit the other, and every file kind reads into
and writes from them.

File coordinates follow the MOTChallenge convention (1-based pixel
positions of the top-left corner); values are carried through as
continuous floats without re-quantization so existing ground-truth files
interoperate bit-exactly.

Every file kind shares one row layout, ``frame,id,x,y,w,h,...``, and
differs only in its tail columns:
  detections:   conf,-1,-1,-1               (id is -1)
  results:      conf,-1,-1,-1               (id >= 1)
  ground truth: flag,class,visibility

A file is read as one array of the leading fields each kind names
(``_table``), and one array check (``_first_fault``) names its first bad
line; the line split only re-parses fields with ``float``.  One writer
formats the shared prefix (``_write``).  Extra trailing columns are ignored
on read.  LF and CRLF are both accepted; LF is emitted.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from .geometry import BoundingBox

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
class Detection:
    """One detector output: frame index, box, confidence in [0, 1]."""

    frame: int
    box: BoundingBox
    confidence: float

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class MotRecord:
    """One tracked row, as trackers emit it or a file holds it.  For
    ground-truth files, ``confidence`` holds the 0/1 consider flag; result
    rows carry no class or visibility (-1)."""

    frame: int
    track_id: int
    box: BoundingBox
    confidence: float
    class_id: int = -1
    visibility: float = -1.0

    def __post_init__(self):
        if self.track_id < 1:
            raise ValueError(f"track id must be >= 1, got {self.track_id}")


def check_int_ids(label: str, frames: Iterable[int], ids: Sequence) -> None:
    """Raise ValueError on the first id that is a bool or not an integer,
    naming its frame; ``frames`` runs alongside ``ids``."""
    if any(t is bool or not issubclass(t, Integral) for t in set(map(type, ids))):
        f, i = next((f, i) for f, i in zip(frames, ids)
                    if isinstance(i, bool) or not isinstance(i, Integral))
        raise ValueError(f"{label}: frame {f} has id {i!r}, not an integer")


@dataclass(frozen=True)
class SequenceData:
    records: tuple[MotRecord, ...]

    def evaluable(self) -> list[MotRecord]:
        """Ground-truth rows that take part in evaluation: considered
        (flag nonzero) person-class entries."""
        return [
            r for r in self.records
            if r.confidence != 0 and r.class_id == PERSON_CLASS
        ]


def _first_fault(table: np.ndarray, names: Sequence[str],
                 records: bool) -> tuple[int, int] | None:
    """The first row of ``table`` to break a rule, and the first rule it
    breaks, numbered in test order: each field (finite; frame, id and class
    whole), the frame (>= 1) and, for ``records``, the id (>= 1), the sides
    (positive) and the repeat of an earlier (frame, id).  None if all pass.
    """
    frame, track_id, w, h = table[:, 0], table[:, 1], table[:, 4], table[:, 5]
    whole = np.array([name in _WHOLE_FIELDS for name in names])
    rules = [~np.isfinite(table) | (whole & (table != np.trunc(table))), frame < 1]
    if records:
        order = np.lexsort((track_id, frame))
        repeat = np.zeros(len(table), dtype=bool)
        repeat[order[1:]] = ((frame[order][1:] == frame[order][:-1])
                             & (track_id[order][1:] == track_id[order][:-1]))
        rules += [track_id < 1, (w <= 0) | (h <= 0), repeat]
    broken = np.column_stack(rules)
    rows = broken.any(axis=1)
    if not rows.any():
        return None
    row = int(rows.argmax())
    return row, int(broken[row].argmax())


def _number(text: str) -> float | None:
    """``text`` as a float, or None (nan in a table) if it is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def _fault(names: Sequence[str], texts: Sequence[str], values: list, rule: int) -> str:
    """What a row of field ``texts`` and ``values`` breaks, by rule number."""
    if rule < len(names):
        text = texts[rule].strip()
        problem = ("is not numeric" if _number(text) is None
                   else "must be finite" if not math.isfinite(values[rule])
                   else "must be an integer")
        return f"field {names[rule]!r} {problem}: {text!r}"
    frame, track_id, _, _, w, h = values[:6]
    return ("frame must be >= 1",
            f"track id must be >= 1, got {int(track_id)}",
            f"box sides must be positive, got w={w} h={h}",
            f"duplicate (frame, id) pair ({int(frame)}, {int(track_id)})")[rule - len(names)]


def _table(path, names: Sequence[str], records: bool) -> np.ndarray:
    """The fields ``names`` of every non-blank line, as a (lines, fields)
    float array in file order.

    numpy parses the whole file in one call.  Only if that fails, a row
    breaks a rule or a detection is dropped are the lines split and their
    fields parsed by ``float``, which also takes ``1_000`` and blank-looking
    lines; the same check then names the first bad line, after logging each
    dropped detection before it.
    """
    try:
        with warnings.catch_warnings():
            # A file without rows is valid and reads as no records.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            table = np.loadtxt(path, delimiter=",", usecols=range(len(names)),
                               ndmin=2, comments=None, encoding="utf-8")
    except (OSError, ValueError):
        pass
    else:
        table = table.reshape(-1, len(names))
        if (_first_fault(table, names, records) is None
                and (records or (table[:, 4:6] > 0).all())):
            return table
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        lines = [(lineno, line.split(",")) for lineno, line in enumerate(fh, start=1)
                 if line.strip()]
    short = next((i for i, (_, texts) in enumerate(lines) if len(texts) < len(names)),
                 len(lines))
    table = np.array([[_number(text) for text in texts[:len(names)]]
                      for _, texts in lines[:short]], dtype=float).reshape(-1, len(names))
    fault = _first_fault(table, names, records)
    end = short if fault is None else fault[0]
    if not records:
        for row in np.flatnonzero((table[:end, 4:6] <= 0).any(axis=1)):
            logger.warning("%s: line %d: rejected detection with non-positive size "
                           "w=%s h=%s", path, lines[row][0], *table[row, 4:6].tolist())
    if fault is not None:
        row, rule = fault
        what = _fault(names, lines[row][1], table[row].tolist(), rule)
        raise MotFileError(f"{path}: line {lines[row][0]}: {what}")
    if short < len(lines):
        raise MotFileError(f"{path}: line {lines[short][0]}: expected at least "
                           f"{len(names)} comma-separated fields, got {len(lines[short][1])}")
    return table


def _columns(table: np.ndarray, names: Sequence[str]) -> list[list]:
    """The table's columns as lists of Python numbers, ints for whole fields."""
    return [list(map(int, column)) if name in _WHOLE_FIELDS else column
            for name, column in zip(names, table.T.tolist())]


def read_detections(path) -> dict[int, list[Detection]]:
    """Read a detection file, grouped by frame and ordered.

    Non-finite fields and a fractional frame or id raise MotFileError.
    Confidences outside [0, 1] are clamped (with a warning count); rows
    with non-positive width or height are rejected with a diagnostic.
    """
    table = _table(path, _DETECTION_FIELDS, records=False)
    kept = (table[:, 4] > 0) & (table[:, 5] > 0)
    rejected = len(table) - int(kept.sum())
    table = table[kept]
    table = table[np.argsort(table[:, 0], kind="stable")]
    confidence = table[:, 6]
    low, high = confidence < 0.0, confidence > 1.0
    clamped = int(low.sum() + high.sum())
    confidence[low], confidence[high] = 0.0, 1.0
    grouped: dict[int, list[Detection]] = {}
    for frame, _, x, y, w, h, conf in zip(*_columns(table, _DETECTION_FIELDS)):
        grouped.setdefault(frame, []).append(
            Detection(frame, BoundingBox(x, y, w, h), conf)
        )
    if clamped:
        logger.warning("%s: clamped %d confidence values into [0, 1]", path, clamped)
    if rejected:
        logger.warning("%s: rejected %d rows with non-positive size", path, rejected)
    return grouped


def _read_records(path, names: Sequence[str]) -> SequenceData:
    table = _table(path, names, records=True)
    table = table[np.lexsort((table[:, 1], table[:, 0]))]
    return SequenceData(tuple(
        MotRecord(frame, track_id, BoundingBox(x, y, w, h), *tail)
        for frame, track_id, x, y, w, h, *tail in zip(*_columns(table, names))
    ))


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


def write_results(path, tracked: Sequence[MotRecord]) -> None:
    """Write tracked rows as MOT result rows.

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
    """Write detections (id column -1) in frame order, each keyed by its frame."""
    for frame, detections in detections_by_frame.items():
        stray = [d.frame for d in detections if d.frame != frame]
        if stray:
            raise ValueError(f"key {frame} holds a detection of frame {stray[0]}")
    _write(path, ((frame, -1, d.box, f"{d.confidence:.6f},-1,-1,-1")
                  for frame in sorted(detections_by_frame)
                  for d in detections_by_frame[frame]))


def write_ground_truth(path, sequence: SequenceData) -> None:
    """Write ground-truth rows (flag, class, visibility tail columns)."""
    _write(path, ((r.frame, r.track_id, r.box,
                   f"{int(r.confidence)},{r.class_id},{r.visibility:.2f}")
                  for r in sequence.records))
