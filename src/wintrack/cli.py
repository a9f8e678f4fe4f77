"""Command-line front end.

Subcommands:
  track   run a tracker (solo, or two-level windowed with --l2/-k) over a
          MOT detection file and write a MOT result file
  eval    score a result file against ground truth (MOTA/MOTP/IDF1/HOTA)
  sweep   score one level-1 run alone and corrected at a set of window lengths
  synth   generate ground-truth and detection files from a scenario config

Exit codes: 0 success, 1 usage, 2 I/O failure, 3 data validation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

from .ini import read_ini
from .metrics import evaluate, frames_from_records
from .motio import (
    read_detections,
    read_ground_truth,
    read_results,
    write_detections,
    write_ground_truth,
    write_results,
)
from .synth import bundled_scenario, generate, load_scenario
from .trackers import TRACKER_KINDS, TrackerConfig, make_tracker, run_tracker, track_frames
from .window import WindowedTracker, correct, run_windowed

DEFAULT_K = 3
DEFAULT_SWEEP_KS = (2, 3, 5, 10)
LEVEL2_KINDS = ("bytetrack", "ocsort")
_FRAME_AND_ID = attrgetter("frame", "track_id")  # the order result files keep


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a value >= 1, got {value}")
    return value


def _k_list(text: str) -> list[int]:
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated int list")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("window lengths must be integers >= 1")
    return values


def _bool(raw: str) -> bool:
    words = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}
    if raw.lower() not in words:
        raise ValueError(f"expected one of {', '.join(words)}")
    return words[raw.lower()]


# Each TrackerConfig field's value parser, chosen by the type of its default;
# the kind comes from --l1 or --l2.
_FIELD_PARSERS = {f.name: {bool: _bool, int: int, float: float}[type(f.default)]
                  for f in fields(TrackerConfig) if f.name != "kind"}


def _tracker_configs(args) -> tuple[TrackerConfig, TrackerConfig | None]:
    """The ``--l1`` and ``--l2`` configs (None without ``--l2``), each with the
    ``--config`` file's values for its level; ``[l2]`` is checked without ``--l2`` too."""
    keys = {"l1": _FIELD_PARSERS, "l2": _FIELD_PARSERS}.get
    sections = read_ini(args.config, keys, ValueError) if args.config else {}

    def config(level, kind):
        try:
            return TrackerConfig(kind=kind, **sections.get(level, {}))
        except ValueError as exc:
            raise ValueError(f"{args.config}: [{level}] {exc}") from exc
    cfg_l1, cfg_l2 = config("l1", args.l1), config("l2", args.l2 or LEVEL2_KINDS[0])
    return cfg_l1, cfg_l2 if args.l2 else None


def cmd_track(args) -> int:
    detections = read_detections(args.det)
    cfg_l1, cfg_l2 = _tracker_configs(args)
    level1 = make_tracker(cfg_l1)
    if cfg_l2 is None:
        tracked = run_tracker(level1, detections)
    else:
        tracked = run_windowed(WindowedTracker(level1, make_tracker(cfg_l2), args.k or DEFAULT_K),
                               detections)
    write_results(args.out, sorted(tracked, key=_FRAME_AND_ID))
    return 0


# (label, MetricsReport field) of each score `eval` prints; `sweep` prints the first four.
_SCORES = (("IDF1", "idf1"), ("HOTA", "hota"), ("MOTA", "mota"), ("MOTP", "motp"),
           ("DetA", "det_a"), ("AssA", "ass_a"))


def _percent(report, field: str) -> str:
    """A score as every table prints it: a percentage with one decimal."""
    return f"{100.0 * getattr(report, field):.1f}"


def _csv(header, rows) -> str:
    return "".join(",".join(row) + "\n" for row in (header, *rows))


def _format_eval(report, fmt: str) -> str:
    c, i = report.clear, report.identity
    scores = [(label, _percent(report, field)) for label, field in _SCORES]
    counts = [(label, str(value)) for label, value in (
        ("gtDet", c.gt_det), ("TP", c.tp), ("FP", c.fp), ("FN", c.fn),
        ("IDSW", c.idsw), ("IDTP", i.idtp), ("IDFP", i.idfp), ("IDFN", i.idfn))]
    if fmt == "csv":
        return _csv([label.lower() for label, _ in scores + counts],
                    [[value for _, value in scores + counts]])

    def block(head, items):
        return [f"{head:<8}{'Value':>8}", *(f"{label:<8}{value:>8}" for label, value in items)]
    return "\n".join(block("Metric", scores) + [""] + block("Count", counts)) + "\n"


def cmd_eval(args) -> int:
    gt = read_ground_truth(args.gt)
    res = read_results(args.res)
    report = evaluate(frames_from_records(gt.evaluable()),
                      frames_from_records(res.records))
    sys.stdout.write(_format_eval(report, args.format))
    return 0


def _sweep_rows(detections, gt_frames, cfg_l1, cfg_l2, k_values):
    """The baseline's report, then each k's, all from one level-1 run; each
    run is scored as soon as it is made."""
    def row(l2, k, tracked):
        return l2, k, evaluate(gt_frames, frames_from_records(sorted(tracked, key=_FRAME_AND_ID)))
    level1 = make_tracker(cfg_l1)
    frames = list(track_frames(level1, detections))
    rows = [row("-", "-", [td for _, tracked in frames for td in tracked])]
    for k in k_values:
        corrected = correct(WindowedTracker(level1, make_tracker(cfg_l2), k), frames)
        rows.append(row(cfg_l2.kind, str(k), corrected))
    return rows


def _format_sweep(rows, fmt: str) -> str:
    header = ("l2", "k", *(field for _, field in _SCORES[:4]))
    cells = [(l2, k, *(_percent(r, field) for _, field in _SCORES[:4])) for l2, k, r in rows]
    if fmt == "csv":
        return _csv(header, cells)
    widths = [max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(header)]

    def fmt_row(row):
        left = f"{row[0]:<{widths[0]}}  {row[1]:>{widths[1]}}"
        rest = "  ".join(f"{v:>{widths[i + 2]}}" for i, v in enumerate(row[2:]))
        return f"{left}  {rest}"
    return "\n".join(fmt_row(row) for row in (header, *cells)) + "\n"


def cmd_sweep(args) -> int:
    detections = read_detections(args.det)
    gt = read_ground_truth(args.gt)
    gt_frames = frames_from_records(gt.evaluable())
    cfg_l1, cfg_l2 = _tracker_configs(args)
    rows = _sweep_rows(detections, gt_frames, cfg_l1, cfg_l2, args.k_values)
    sys.stdout.write(_format_sweep(rows, args.format))
    return 0


def cmd_synth(args) -> int:
    if Path(args.scenario).exists():
        scenario = load_scenario(args.scenario)
    else:
        scenario = bundled_scenario(args.scenario)
    gt, detections = generate(scenario)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_ground_truth(out_dir / "gt.txt", gt)
    write_detections(out_dir / "det.txt", detections)
    print(f"wrote {out_dir / 'gt.txt'} and {out_dir / 'det.txt'}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wintrack", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_track = sub.add_parser("track", help="run a tracker over a detection file")
    p_track.add_argument("--det", required=True, help="MOT detection file")
    p_track.add_argument("--out", required=True, help="MOT result file to write")
    p_track.add_argument("--l1", required=True, choices=TRACKER_KINDS,
                         help="per-frame tracker")
    p_track.add_argument("--l2", choices=LEVEL2_KINDS,
                         help="window-rate tracker; enables windowed correction")
    p_track.add_argument("-k", type=_positive_int, default=None,
                         help=f"window length in frames, with --l2 (default {DEFAULT_K})")
    p_track.add_argument("--config", help="INI file with [l1]/[l2] overrides")
    p_track.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("eval", help="score a result file against ground truth")
    p_eval.add_argument("--gt", required=True, help="MOT ground-truth file")
    p_eval.add_argument("--res", required=True, help="MOT result file")
    p_eval.add_argument("--format", choices=("table", "csv"), default="table")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser(
        "sweep", help="compare a base tracker against windowed configurations"
    )
    p_sweep.add_argument("--det", required=True)
    p_sweep.add_argument("--gt", required=True)
    p_sweep.add_argument("--l1", required=True, choices=TRACKER_KINDS)
    p_sweep.add_argument("--l2", required=True, choices=LEVEL2_KINDS)
    p_sweep.add_argument("--k-values", type=_k_list,
                         default=list(DEFAULT_SWEEP_KS),
                         help="comma-separated window lengths (default 2,3,5,10)")
    p_sweep.add_argument("--format", choices=("table", "csv"), default="table")
    p_sweep.add_argument("--config", help="INI file with [l1]/[l2] overrides")
    p_sweep.set_defaults(func=cmd_sweep)

    p_synth = sub.add_parser("synth", help="generate scenario gt.txt and det.txt")
    p_synth.add_argument("--scenario", required=True,
                         help="scenario config path or bundled scenario name")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "k", None) is not None and args.l2 is None:
            parser.error("argument -k: a window length needs --l2")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except OSError as exc:
        print(f"wintrack: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # every data fault, the package's own errors included
        print(f"wintrack: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
