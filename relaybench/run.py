"""Run one workload of the relaypair benchmark and print its result.

    python3 relaybench/run.py --workload sweep-total --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  The result, and in a traced run the spans, are also
written under ``relaybench/out/``.  Exits with code 2, printing no result,
when the relaypair sources are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from relaybench import program  # noqa: E402

SETUP_PROBES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("solve_ms_p50", "ms"),
    ("trials_per_s", "1/s"),
    ("rate_mean_nats", "nats"),
    ("cert_ratio_mean", "1"),
    ("oracle_ratio_mean", "1"),
)


def _setup(rp, workload: str, seed: int):
    """Make the instances and warm up: with the import of relaypair, all a
    run does before its first timed operation."""
    from relaybench.workloads import WORKLOADS

    bench = WORKLOADS[workload](rp, seed)
    bench.warm_up()
    return bench


def _measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from process start to the
    end of set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", "0", "--setup-only"],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with code {child.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def _end_to_end(tally, setup_s: float) -> dict:
    solves, trials = np.median(np.array(tally.round_rates), axis=0)
    class_medians = [np.median(v) for v in tally.solve_ms.values()]
    values = {
        "setup_s": setup_s,
        "solves_per_s": solves,
        "solve_ms_p50": np.exp(np.mean(np.log(class_medians))),
        "trials_per_s": trials,
        "rate_mean_nats": np.mean(tally.rates),
        "cert_ratio_mean": np.mean(tally.cert_ratios),
        "oracle_ratio_mean": np.mean(tally.oracle_ratios),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    from relaybench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        rp = program.load()
    except program.ProgramMissing as exc:
        print(f"relaybench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        _setup(rp, args.workload, args.seed)
        print("ready", flush=True)
        return 0
    setup_s = 0.0 if args.trace else _measure_setup(args.workload, args.seed)
    bench = _setup(rp, args.workload, args.seed)

    from relaybench.tracing import Tracer
    from relaybench.workloads import Tally

    tally = Tally()
    tracer = Tracer() if args.trace else None
    rounds, round_s = [], []

    if tracer:
        tracer.install()
    try:
        while not rounds or sum(round_s) < args.seconds:
            t0 = time.perf_counter()
            rounds.append(bench.round(len(rounds), tally))
            round_s.append(time.perf_counter() - t0)
    finally:
        if tracer:
            tracer.uninstall()
    bench.check(rounds, tally)

    if tracer:
        metrics = tracer.metrics(len(rounds), sum(round_s) / len(rounds))
        if tracer.absent:
            print("absent layers: " + ", ".join(tracer.absent))
    else:
        metrics = _end_to_end(tally, setup_s)
    for message in tally.errors[:10]:
        print(f"failed: {message}", file=sys.stderr)
    for message in tally.failures[:20]:
        print(f"wrong: {message}", file=sys.stderr)
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(dict(result, round_s=round_s), indent=1) + "\n")
    if tracer:
        np.savez(out / f"{stem}-spans.npz", **tracer.spans())
    timed = sum(len(v) for v in tally.solve_ms.values())
    print(f"{args.workload}: {len(rounds)} rounds, {timed} timed solves, "
          f"{tally.failed} of {tally.attempted} failed, {len(tally.failures)} wrong outputs")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
