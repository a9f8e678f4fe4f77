"""Command-line front end.

Subcommands:
  track   run a tracker (solo, or two-level windowed with --l2/-k) over a
          MOT detection file and write a MOT result file
  eval    score a result file against ground truth (MOTA/MOTP/IDF1/HOTA)
  sweep   run the baseline plus a set of window lengths and tabulate scores
  synth   generate ground-truth and detection files from a scenario config

Exit codes: 0 success, 1 usage, 2 I/O failure, 3 data validation.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields
from pathlib import Path

from .metrics import (
    UndefinedMetricError,
    evaluate,
    frames_from_records,
    frames_from_tracked,
    report_csv,
    report_table,
)
from .motio import (
    MotFileError,
    read_detections,
    read_ground_truth,
    read_results,
    write_detections,
    write_ground_truth,
    write_results,
)
from .synth import ScenarioError, bundled_scenario, generate, load_scenario
from .trackers import TRACKER_KINDS, TrackerConfig, make_tracker, run_tracker
from .window import WindowedTracker, run_windowed

DEFAULT_K = 3
DEFAULT_SWEEP_KS = (2, 3, 5, 10)
LEVEL2_KINDS = ("bytetrack", "ocsort")


class ConfigError(ValueError):
    """Invalid tracker config file."""


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


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}
_PARSERS = {
    str: str.strip,
    bool: lambda raw: _BOOL_VALUES[raw.strip().lower()],
    int: int,
    float: float,
}
# Each TrackerConfig field's value parser, chosen by the type of its default.
_FIELD_PARSERS = {f.name: _PARSERS[type(getattr(TrackerConfig, f.name))]
                  for f in fields(TrackerConfig)}


def _load_config_file(path) -> dict[str, dict]:
    """Read [l1]/[l2] sections of key = value overrides for TrackerConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    out: dict[str, dict] = {}
    for section in parser.sections():
        if section not in ("l1", "l2"):
            raise ConfigError(f"{path}: unknown section [{section}]")
        overrides = {}
        for key, raw in parser[section].items():
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                overrides[key] = _FIELD_PARSERS[key](raw)
            except (ValueError, KeyError) as exc:
                raise ConfigError(
                    f"{path}: bad value {raw!r} for {key!r} in [{section}]"
                ) from exc
        out[section] = overrides
    return out


def _tracker_config(kind: str | None, overrides: dict) -> TrackerConfig:
    merged = dict(overrides)
    if kind is not None:
        merged["kind"] = kind  # the command-line flag wins over the file
    try:
        return TrackerConfig(**merged)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_configuration(detections, cfg_l1, cfg_l2, k):
    """Run one tracking configuration and return (frame, id)-sorted output."""
    level1 = make_tracker(cfg_l1)
    if cfg_l2 is None:
        tracked = run_tracker(level1, detections)
    else:
        windowed = WindowedTracker(level1, make_tracker(cfg_l2), k)
        tracked = run_windowed(windowed, detections)
    tracked.sort(key=lambda td: (td.frame, td.track_id))
    return tracked


def cmd_track(args) -> int:
    detections = read_detections(args.det)
    file_cfg = _load_config_file(args.config) if args.config else {}
    cfg_l1 = _tracker_config(args.l1, file_cfg.get("l1", {}))
    cfg_l2 = None
    k = args.k if args.k is not None else DEFAULT_K
    if args.l2 is not None:
        cfg_l2 = _tracker_config(args.l2, file_cfg.get("l2", {}))
    write_results(args.out, _run_configuration(detections, cfg_l1, cfg_l2, k))
    return 0


def _evaluate_tracked(gt_frames, tracked):
    return evaluate(gt_frames, frames_from_tracked(tracked))


def cmd_eval(args) -> int:
    gt = read_ground_truth(args.gt)
    res = read_results(args.res)
    report = evaluate(frames_from_records(gt.evaluable()),
                      frames_from_records(res.records))
    render = report_csv if args.format == "csv" else report_table
    sys.stdout.write(render(report))
    return 0


_SWEEP_HEADER = ("l2", "k", "idf1", "hota", "mota", "motp")


def _sweep_rows(detections, gt_frames, cfg_l1, cfg_l2, k_values):
    rows = []
    baseline = _run_configuration(detections, cfg_l1, None, 1)
    report = _evaluate_tracked(gt_frames, baseline)
    rows.append(("-", "-", report))
    for k in k_values:
        tracked = _run_configuration(detections, cfg_l1, cfg_l2, k)
        rows.append((cfg_l2.kind, str(k), _evaluate_tracked(gt_frames, tracked)))
    return rows


def _format_sweep(rows, fmt: str) -> str:
    cells = [
        (l2, k) + tuple(
            f"{100.0 * getattr(r, f):.1f}" for f in ("idf1", "hota", "mota", "motp")
        )
        for l2, k, r in rows
    ]
    if fmt == "csv":
        lines = [",".join(_SWEEP_HEADER)]
        lines.extend(",".join(row) for row in cells)
    else:
        widths = [max(len(h), *(len(row[i]) for row in cells))
                  for i, h in enumerate(_SWEEP_HEADER)]
        def fmt_row(row):
            left = f"{row[0]:<{widths[0]}}  {row[1]:>{widths[1]}}"
            rest = "  ".join(f"{v:>{widths[i + 2]}}" for i, v in enumerate(row[2:]))
            return f"{left}  {rest}"
        lines = [fmt_row(_SWEEP_HEADER)] + [fmt_row(row) for row in cells]
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    detections = read_detections(args.det)
    gt = read_ground_truth(args.gt)
    gt_frames = frames_from_records(gt.evaluable())
    file_cfg = _load_config_file(args.config) if args.config else {}
    cfg_l1 = _tracker_config(args.l1, file_cfg.get("l1", {}))
    cfg_l2 = _tracker_config(args.l2, file_cfg.get("l2", {}))
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
                         help=f"window length in frames (default {DEFAULT_K})")
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
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except OSError as exc:
        print(f"wintrack: {exc}", file=sys.stderr)
        return 2
    except (MotFileError, ScenarioError, ConfigError, UndefinedMetricError,
            ValueError) as exc:
        print(f"wintrack: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
