"""Show that the benchmark's checks can fail.

Runs each workload's program once on seed 1, confirms the checks pass on
the true output, then corrupts that output on purpose and confirms that a
check rejects each corruption:

* a duplicate id in one frame, a shifted box and one dropped row on the
  crowd output;
* a target relabelled after a gap on the stream output;
* a dropped row, a shifted box and a duplicate id in the result of one
  score sequence, and a DetA that rises with alpha.

Usage (from the root of a checkout): python3 bench/selftest.py
Exits 1 if any corruption goes unnoticed or the true output fails.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import scenes  # noqa: E402
import workloads  # noqa: E402
from wintrack import metrics  # noqa: E402

SEED = 1
failures = []


def expect(label: str, problems: list[str], rejected: bool) -> None:
    ok = bool(problems) == rejected
    verdict = "rejected" if problems else "accepted"
    detail = f" ({problems[0]})" if problems else ""
    print(f"{'PASS' if ok else 'FAIL'} {label}: {verdict}{detail}")
    if not ok:
        failures.append(label)


def windowed_rows(wl, batches):
    """Rows (frame, id, key) per window from one pass of the program."""
    wt = wl.new_tracker()
    out = []
    for batch in batches:
        emitted = workloads._push_window(wt, batch)
        out.append([(td.frame, td.track_id, workloads._key(td)) for td in emitted])
    return out


def crowd_checks(wl, windows) -> list[str]:
    rows = [r for w in windows for r in w]
    problems = checks.ids_unique_per_frame(rows)
    problems += checks.provenance(rows, wl.truth)[1]
    return problems + wl.against_level1(
        [checks.rows_digest(k for _, _, k in w) for w in windows])


def crowd(data_dir: Path) -> None:
    scenes.write_crowd(SEED, data_dir)
    wl = workloads.Crowd(data_dir, SEED)
    wl.load_truth()
    windows = windowed_rows(wl, wl.batches())
    expect("crowd: true output", crowd_checks(wl, windows), rejected=False)

    w = next(i for i, rows in enumerate(windows) if len({r[0] for r in rows}) < len(rows))
    frame = next(f for f, n in Counter(r[0] for r in windows[w]).items() if n >= 2)
    same = [n for n, r in enumerate(windows[w]) if r[0] == frame]
    dup = [list(w_) for w_ in windows]
    a, b = same[0], same[1]
    dup[w][b] = (frame, dup[w][a][1], dup[w][b][2])
    expect("crowd: duplicate id in one frame", crowd_checks(wl, dup), rejected=True)

    shifted = [list(w_) for w_ in windows]
    f_, i_, key = shifted[w][0]
    shifted[w][0] = (f_, i_, (key[0], key[1] + 1.0, *key[2:]))
    expect("crowd: shifted box", crowd_checks(wl, shifted), rejected=True)

    dropped = [list(w_) for w_ in windows]
    del dropped[w][0]
    expect("crowd: one dropped row", crowd_checks(wl, dropped), rejected=True)


def stream() -> None:
    wl = workloads.Stream(None, SEED)
    scene = scenes.StreamScene(SEED)
    pairs = list(wl.windows(scene))
    windows = windowed_rows(wl, (batch for batch, _ in pairs))
    truth = {k: t for _, tr in pairs for k, t in tr.items()}
    rows = [r for w in windows for r in w]
    targets = [truth[key] for _, _, key in rows]

    def bridge(ids) -> list[str]:
        check = checks.BridgeCheck(scene.gaps, *scenes.BRIDGE_CHECK)
        for (frame, _, _), target, track_id in zip(rows, targets, ids):
            check.feed(frame, target, track_id)
        return check.finish()

    ids = [track_id for _, track_id, _ in rows]
    expect("stream: true output", bridge(ids), rejected=False)
    gap = scene.gaps[0]
    relabelled = [
        10 ** 7 if t == gap.target and f > gap.last_hidden else i
        for (f, _, _), t, i in zip(rows, targets, ids)
    ]
    expect("stream: target relabelled after a gap", bridge(relabelled), rejected=True)


def score(data_dir: Path) -> None:
    scenes.write_score(SEED, data_dir)
    wl = workloads.Score(data_dir, SEED)
    wl.load_truth()
    s = len(wl.sequences) - 1
    gt, pred = wl.sequences[s]
    expected = wl.expected[s]

    def problems(pred_frames) -> list[str]:
        return workloads.score_problems(metrics.evaluate(gt, pred_frames),
                                        expected, "score")

    expect("score: true result", problems(pred), rejected=False)
    frame = next(f for f, items in pred.items() if len(items) >= 2)

    dropped = dict(pred)
    dropped[frame] = pred[frame][1:]
    expect("score: one dropped row", problems(dropped), rejected=True)

    shifted = dict(pred)
    (pid, box), *rest = pred[frame]
    shifted[frame] = [(pid, box.translated(30.0, 0.0)), *rest]
    expect("score: shifted box", problems(shifted), rejected=True)

    dup = dict(pred)
    (pid_a, box_a), (_, box_b), *rest = pred[frame]
    dup[frame] = [(pid_a, box_a), (pid_a, box_b), *rest]
    expect("score: duplicate id in one frame", problems(dup), rejected=True)

    rising = [0.5, 0.6] + [0.4] * 17
    expect("score: DetA rising with alpha",
           checks.hota_properties(rising, [expected["ass_a_low"]] * 19,
                                  dict(expected, det_a_low=0.5), "score"),
           rejected=True)


def main() -> int:
    data_dir = ROOT / ".bench_data" / f"selftest-{os.getpid()}"
    data_dir.mkdir(parents=True, exist_ok=True)
    try:
        crowd(data_dir)
        stream()
        score(data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    print(f"{len(failures)} of the cases above went wrong" if failures
          else "every corruption was rejected")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
