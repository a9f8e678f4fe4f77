"""Benchmark of wintrack: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {crowd,stream,score} --seed N \
        --seconds S --trace {0,1}

A run writes the workload's inputs from the seed, times the program's
set-up in several fresh processes, then replays the workload in rounds
until S seconds have passed, checking every output.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
of BENCHMARK.json, measured without tracing.  With ``--trace 1`` rounds
alternate between untraced and traced, and the metrics are the per-layer
ones; the spans of the last traced round are written to
``.bench_data/spans-<workload>.npz``.

Each run is one process with one thread (BLAS is pinned to one thread);
the set-up probes and the input writer are short child processes that run
one at a time before the timed phase.
"""

import os

# Pinned before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = ROOT / ".bench_data"
WORKLOADS = ("crowd", "stream", "score")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10                    # samples beyond the tail percentile
MIN_TAIL_SAMPLES = 40


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child(args: list[str]) -> str:
    try:
        proc = subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} took over {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} failed:\n{proc.stderr.strip()}")
    return proc.stdout


def probe_setup(workload: str, data_dir: Path, seed: int) -> dict:
    """One set-up in a fresh process; total_s runs from before the spawn."""
    t0 = perf_counter()
    out = _child([str(BENCH / "probe.py"), workload, str(data_dir), str(seed)])
    probe = json.loads(out.strip().splitlines()[-1])
    probe["total_s"] = probe.pop("end") - t0
    return probe


def typical(rounds) -> tuple[list[float], float]:
    """Each operation's median time over the rounds, and the median time
    spent in the program between operations.

    Every round attempts the same operations in the same order, so each
    operation is timed once per round.  Taking each operation's median
    over rounds spread across the run drops the bursts in which other work
    on the machine slows everything, and keeps the sample count fixed
    whatever the speed.
    """
    whole = [r for r in rounds if not r.failed]
    if not whole:
        return [], float("nan")
    return ([statistics.median(t) for t in zip(*(r.op_s for r in whole))],
            statistics.median(r.extra_s for r in whole))


def op_stats(rounds) -> tuple[float, float, int]:
    """(median, tail, samples) of the operation times in seconds.

    The tail is the highest percentile with TAIL_BEYOND samples above it:
    the (TAIL_BEYOND + 1)-th largest.  Below MIN_TAIL_SAMPLES samples there
    is no tail and the median stands in for it.
    """
    per_op = sorted(typical(rounds)[0])
    n = len(per_op)
    if not n:
        return float("nan"), float("nan"), 0
    p50 = statistics.median(per_op)
    tail = per_op[n - TAIL_BEYOND - 1] if n >= MIN_TAIL_SAMPLES else p50
    return p50, tail, n


def busy_s(rounds) -> float:
    """Time in the program for one round, from the typical repeats."""
    per_op, extra = typical(rounds)
    return sum(per_op) + extra


def run_rounds(wl, seconds: float, tracer):
    """Rounds until `seconds` have passed.  With a tracer, rounds alternate
    untraced/traced (at least one of each) and each traced round's layer
    figures are kept."""
    from spans import layer_metrics

    rounds, traced_rounds, layers = [], [], []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and (len(rounds) + len(traced_rounds)) % 2 == 1
        if traced:
            tracer.clear()
            tracer.install()
        try:
            r = wl.run_round(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_rounds.append(r)
            layers.append(layer_metrics(tracer.totals(), tracer.work))
        else:
            rounds.append(r)
        done = perf_counter() - t_start >= seconds
        if done and (tracer is None or traced_rounds):
            return rounds, traced_rounds, layers


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def end_to_end(rounds, probes) -> dict:
    p50, tail, _ = op_stats(rounds)
    return {
        "setup_s": _median(p["total_s"] for p in probes),
        "rows_per_s": rounds[0].rows / busy_s(rounds),
        "call_ms_p50": 1e3 * p50,
        "call_ms_tail": 1e3 * tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds, traced_rounds, layers, probes, timed, problems) -> dict:
    """Per-layer figures: for the metrics named in `timed` (seconds) the
    median over traced rounds, for counts the value every round gives."""
    out = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name in timed:
            out[name] = _median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"trace: count {name} differs between rounds: {values}")
            out[name] = values[0]
    out["wintrack.import_s"] = _median(p["import_s"] for p in probes)
    out["motio.read_s"] = _median(p["read_s"] for p in probes)
    last = traced_rounds[-1]
    out["trackers.history_rows"] = last.history_rows
    out["window.matched_ratio"] = (last.matched_rows / last.output_rows
                                   if last.output_rows else 0.0)
    plain = busy_s(rounds)
    traced = busy_s(traced_rounds)
    out["trace.overhead_s"] = traced - plain
    out["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    return out


def run(args, declared: dict) -> dict:
    src = ROOT / "src"
    if not (src / "wintrack" / "__init__.py").is_file():
        raise BenchError(f"no wintrack sources under {src}")
    sys.path.insert(0, str(src))
    import scenes

    data_dir = DATA / f"{args.workload}-{args.seed}-{os.getpid()}"
    data_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload in scenes.WRITERS:
            _child([str(BENCH / "scenes.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--out", str(data_dir)])
        probes = [probe_setup(args.workload, data_dir, args.seed)
                  for _ in range(SETUP_PROBES)]

        import workloads
        from spans import Tracer

        wl = workloads.WORKLOADS[args.workload](data_dir, args.seed)
        wl.load_truth()
        tracer = Tracer() if args.trace else None
        rounds, traced_rounds, layers = run_rounds(wl, args.seconds, tracer)
        problems = [p for r in rounds + traced_rounds for p in r.problems]
        if args.trace:
            timed = {m["name"] for m in declared["per_layer"] if m["unit"] == "s"}
            metrics = per_layer(rounds, traced_rounds, layers, probes, timed, problems)
            tracer.save(DATA / f"spans-{args.workload}.npz")
        else:
            # Taken before the checks below, so the peak is the timed phase's.
            metrics = end_to_end(rounds, probes)
        problems += wl.completeness()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    all_rounds = rounds + traced_rounds
    attempted = sum(len(r.op_s) + r.failed for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds"
          f" + {len(traced_rounds)} traced, {attempted} operations,"
          f" {op_stats(rounds)[2]} samples per statistic", file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in declared[section] if m["name"] not in metrics]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared[section]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = run(args, declared)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
