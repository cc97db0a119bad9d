"""The TRIPS performance ledger: one command, every metric by name.

Two ways in:

``python benchmarks/e2e/run.py [--seed N] [--scale F] [--reps R]``
    The full ledger.  Every workload runs ``R`` untraced repetitions for
    the end-to-end metrics and one traced pass for the per-layer metrics;
    outputs are checked, everything is printed with its unit, and the last
    line of standard output is the whole ledger as one JSON object.

``python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, for the driver behind ``BENCHMARK.json``: end-to-end
    metrics (``--trace 0``) or per-layer metrics (``--trace 1``) as the
    last line of standard output.

This process only generates the inputs, spawns one fresh interpreter per
repetition (``worker.py``), aggregates and prints.  See ``README.md`` for
the metric catalogue and how the layers and the end-to-end numbers relate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: {SRC / 'repro'} not found; run from a full checkout")
sys.path.insert(0, str(SRC))

from workloads import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402

#: Device-count scale of the single-workload (driver) mode.  ``--scale 1``
#: is the ledger's full size, timed regions of 5-25 s; the driver's cap on
#: total run time leaves room for about a fifth of that per repetition.
DRIVER_SCALE = 0.2
#: Set-ups and least repetitions per single-workload run.
SETUPS = 3
MIN_REPS = 3
#: Times the traced pass runs each of its children.
TRACE_PASSES = 2
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "window_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> (unit, where the traced re-drive reports it):
#: ``span:<name>`` is that span's self time summed over the run,
#: ``count:<key>`` an exact count the re-drive kept, ``output:<key>`` a
#: count read off its finalized output; ``None`` is computed in
#: :func:`measure_per_layer`.
PER_LAYER = {
    "dsm.load_s": ("s", "span:dsm.load"),
    "positioning.read_s": ("s", "span:positioning.read"),
    "positioning.window_cut_s": ("s", "span:positioning.window_cut"),
    "positioning.group_s": ("s", "span:positioning.group"),
    "engine.partition_s": ("s", "span:engine.partition"),
    "engine.pickle_s": ("s", "span:engine.pickle"),
    "engine.task_pickle_bytes": ("bytes", "count:task_pickle_bytes"),
    "engine.result_pickle_bytes": ("bytes", "count:result_pickle_bytes"),
    "phase_one.chunk_s": ("s", "span:phase_one.chunk"),
    "cleaning.clean_s": ("s", "span:cleaning.clean"),
    "annotation.annotate_s": ("s", "span:annotation.annotate"),
    "knowledge.build_s": ("s", "span:knowledge.build"),
    "knowledge.fold_s": ("s", "span:knowledge.fold"),
    "knowledge.retired_epochs": ("count", "count:retired_epochs"),
    "compiled.compile_s": ("s", "span:compiled.compile"),
    "compiled.compiles": ("count", "count:compiles"),
    "compiled.compile_hits": ("count", "count:compile_hits"),
    "inference.viterbi_s": ("s", "span:inference.viterbi"),
    "inference.gaps_found": ("count", "output:gaps_found"),
    "inference.gaps_filled": ("count", "output:gaps_filled"),
    "inference.memo_hit_ratio": ("ratio", None),
    "translator.assemble_s": ("s", "span:translator.assemble"),
    "translator.export_s": ("s", "span:translator.export"),
    "translator.semantics_out": ("count", "output:semantics_out"),
    "live.windows": ("count", "count:windows"),
    "live.records_per_window": ("count", None),
    "live.finalize_s": ("s", "span:live.finalize"),
    "live.glue_s": ("s", None),
    "live.window_p95_ms": ("ms", None),
    "live.window_p99_ms": ("ms", None),
    "durability.encode_s": ("s", "span:durability.encode"),
    "durability.wal_append_s": ("s", "span:durability.wal_append"),
    "durability.wal_bytes_per_record": ("B/record", None),
    "durability.snapshot_s": ("s", "span:durability.snapshot"),
    "durability.snapshots": ("count", "count:snapshots"),
    "durability.overhead_share": ("ratio", None),
    "durability.recovery_s": ("s", None),
    "durability.recovery_load_s": ("s", "span:durability.recovery_load"),
    "durability.recovery_replay_s": ("s", "span:durability.recovery_replay"),
    "durability.recovery_windows_replayed": (
        "count", "count:recovery_windows_replayed",
    ),
    "distributed.route_s": ("s", "span:distributed.route"),
    "distributed.shard_skew": ("ratio", "output:shard_skew"),
    "distributed.exchange_s": ("s", "span:distributed.exchange"),
    "distributed.exchange_rounds": ("count", "count:exchange_rounds"),
    "distributed.finalize_s": ("s", "span:distributed.finalize"),
    "harness.unaccounted_share": ("ratio", None),
    "harness.trace_overhead_share": ("ratio", None),
    "harness.calibration_s": ("s", None),
    "harness.calibration_drift": ("ratio", None),
}


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    Reported at the start and end of an invocation so a noisy host can be
    told from a regression; never used to rescale a metric.
    """
    started = time.perf_counter()
    total = 0
    for value in range(2_000_000):
        total += value * value % 7
    return time.perf_counter() - started


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Harness:
    """One invocation's scratch directory and child-process plumbing."""

    def __init__(self, keep_work: bool):
        root = HERE / ".work"
        root.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=root))
        self.keep_work = keep_work
        self._children = 0
        # What a user gets by default: no TRIPS_* switch and no Python
        # tuning leaks in from the caller.  A fixed hash seed removes the
        # run-to-run variation of str-keyed set order.
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("TRIPS_", "PYTHON"))
        }
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"

    def close(self) -> None:
        if self.keep_work:
            print(f"kept {self.work}")
            return
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()  # unless another run is using it
        except OSError:
            pass

    def generate(self, workload, seed: int, scale: float) -> tuple[Path, float]:
        """Generate the workload's files; returns their directory and the
        seconds it took."""
        directory = Path(tempfile.mkdtemp(dir=self.work, prefix="gen-"))
        started = time.perf_counter()
        generate(workload, seed, scale, directory)
        return directory, time.perf_counter() - started

    def child(self, workload, mode: str, files: Path, spans: int = 0) -> dict:
        """Run ``worker.py`` once in a fresh interpreter; its result."""
        self._children += 1
        work = self.work / f"child-{self._children}"
        out = self.work / f"child-{self._children}.json"
        subprocess.run(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", workload.name, "--mode", mode,
                "--dir", str(files), "--work", str(work), "--out", str(out),
                "--spans", str(spans),
            ],
            env=self.env, check=True, timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        result = json.loads(out.read_text(encoding="utf-8"))
        if not self.keep_work:
            shutil.rmtree(work, ignore_errors=True)
        return result


def measure_end_to_end(
    harness: Harness, workload, seed: int, scale: float, reps: int,
    seconds: float, setups: int,
) -> dict:
    """Untraced repetitions of the real entry point, checked."""
    generations = [
        harness.generate(workload, seed, scale) for _ in range(setups)
    ]
    files = generations[-1][0]
    runs: list[dict] = []
    while len(runs) < reps or sum(run["wall_s"] for run in runs) < seconds:
        runs.append(harness.child(workload, "run", files))
    reference = harness.child(workload, "reference", files)

    digests = {run["digest"] for run in runs}
    correct = digests == {reference["digest"]}
    attempted = sum(run["ops"] for run in runs)
    rates = [run["records"] / run["wall_s"] for run in runs]

    def across_runs(per_run) -> float:
        # A burst of host noise spoils one repetition, not the median.
        return statistics.median(per_run(run) for run in runs)

    metrics = {
        "setup_s": statistics.median(took for _, took in generations)
        + across_runs(lambda run: run["load_s"]),
        "records_per_s": statistics.median(rates),
        "window_p50_ms": across_runs(
            lambda run: percentile(run["window_ms"], 0.50)
        ),
        "peak_rss_mb": across_runs(lambda run: run["rss_mb"]),
    }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics,
        "digest": reference["digest"],
        "reps": len(runs),
        "window_samples": len(runs[0]["window_ms"]),
        "records_per_s_runs": rates,
    }


def measure_per_layer(
    harness: Harness, workload, seed: int, scale: float, calibration: float
) -> dict:
    """The traced pass: the real run, the re-drive with spans off and on.

    Each is run :data:`TRACE_PASSES` times, alternating, and the pass
    with the smallest wall is read: host noise only ever adds time, and
    the differences taken here (glue, trace overhead, journal overhead)
    are small next to it.
    """
    files, _ = harness.generate(workload, seed, scale)
    modes = [("run", 0), ("redrive", 0), ("redrive", 1)]
    if workload.name == "live_durable":
        modes.append(("reference", 0))
    passes: dict[tuple, list[dict]] = {mode: [] for mode in modes}
    for _ in range(TRACE_PASSES):
        for mode, spans in modes:
            passes[mode, spans].append(
                harness.child(workload, mode, files, spans)
            )

    def fastest(mode: str, spans: int = 0, key: str = "wall_s") -> dict:
        return min(passes[mode, spans], key=lambda run: run.get(key, 0.0))

    real, plain, traced = fastest("run"), fastest("redrive"), fastest("redrive", 1)
    digests = {
        run["digest"] for runs in passes.values() for run in runs
        if "digest" in run
    }
    notes: list[str] = []
    values: dict[str, "float | None"] = dict.fromkeys(PER_LAYER)
    values["live.window_p95_ms"] = percentile(real["window_ms"], 0.95)
    values["live.window_p99_ms"] = percentile(real["window_ms"], 0.99)
    if "unavailable" in traced:
        notes.append(
            "re-drive unavailable, layer metrics null and its digest "
            f"unchecked: {traced['unavailable']}"
        )
    else:
        sources = {
            "span": traced["self_times"],
            "count": traced["counts"],
            "output": traced,
        }
        for name, (_, source) in PER_LAYER.items():
            if source is not None:
                kind, _, key = source.partition(":")
                values[name] = sources[kind].get(key)
        counts = traced["counts"]
        values["harness.unaccounted_share"] = (
            traced["self_times"]["run"] / traced["wall_s"]
        )
        values["harness.trace_overhead_share"] = (
            traced["wall_s"] - plain["wall_s"]
        ) / plain["wall_s"]
        values["live.glue_s"] = real["wall_s"] - plain["wall_s"]
        if counts.get("windows"):
            values["live.records_per_window"] = (
                counts["records"] / counts["windows"]
            )
        lookups = traced["memo_hits"] + traced["memo_misses"]
        if lookups:
            values["inference.memo_hit_ratio"] = traced["memo_hits"] / lookups
        if "wal_bytes" in counts:
            values["durability.wal_bytes_per_record"] = (
                counts["wal_bytes"] / counts["records"]
            )
        if values["cleaning.clean_s"] is None:
            notes.append(
                "the phase-one chunk runner no longer calls "
                "Translator.clean_and_annotate; cleaning and annotation "
                "are inside phase_one.chunk_s"
            )
    if workload.name == "live_durable":
        unjournaled = fastest("reference", key="ingest_s")["ingest_s"]
        values["durability.recovery_s"] = fastest("run", key="recovery_s")[
            "recovery_s"
        ]
        values["durability.overhead_share"] = (
            fastest("run", key="ingest_s")["ingest_s"] - unjournaled
        ) / unjournaled
    values["harness.calibration_s"] = calibration
    values["harness.calibration_drift"] = calibrate() / calibration
    correct = len(digests) == 1
    return {
        "correct": correct,
        "attempted": real["ops"],
        "failed": 0 if correct else real["ops"],
        "metrics": values,
        "notes": notes,
    }


def emit(result: dict, units: dict[str, str]) -> dict:
    """The driver's result object: one line, every metric a number.

    A layer metric that does not exist on this workload reads 0 here; the
    ledger mode prints it as ``null``.
    """
    return {
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name] or 0.0, "unit": unit}
            for name, unit in units.items()
        },
    }


def print_ledger(name: str, end_to_end: dict, per_layer: dict) -> None:
    print(f"\n== {name}: {WORKLOADS[name].why}")
    status = "ok" if end_to_end["correct"] and per_layer["correct"] else "FAILED"
    print(
        f"   digest {end_to_end['digest'][:16]}  checks {status}  "
        f"reps {end_to_end['reps']}  ops attempted "
        f"{end_to_end['attempted']} failed {end_to_end['failed']}  "
        f"window samples per rep {end_to_end['window_samples']}"
    )
    rates = end_to_end["records_per_s_runs"]
    for metric, unit in END_TO_END.items():
        line = f"   {metric:<38} {end_to_end['metrics'][metric]:>14.4f} {unit}"
        if metric == "records_per_s" and len(rates) > 1:
            q1, _, q3 = statistics.quantiles(rates, n=4)
            line += f"   quartiles {q1:.1f} .. {q3:.1f}"
        print(line)
    for metric, (unit, _) in PER_LAYER.items():
        value = per_layer["metrics"][metric]
        shown = "null" if value is None else f"{value:.6f}"
        print(f"   {metric:<38} {shown:>14} {unit}")
    for note in per_layer["notes"]:
        print(f"   note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="device-count multiplier (default 1; 0.2 with --workload)",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="least untraced repetitions per workload (default 3)",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep repeating until the timed regions add up to this",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--keep-work", action="store_true",
        help="keep the scratch directory (generated files, span dumps)",
    )
    args = parser.parse_args(argv)
    reps = args.reps if args.reps is not None else MIN_REPS

    # A terminated run still stops its child and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    calibration = calibrate()
    harness = Harness(args.keep_work)
    try:
        if args.workload is not None:
            workload = WORKLOADS[args.workload]
            scale = args.scale if args.scale is not None else DRIVER_SCALE
            if args.trace:
                result = measure_per_layer(
                    harness, workload, args.seed, scale, calibration
                )
                units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            else:
                result = measure_end_to_end(
                    harness, workload, args.seed, scale, reps, args.seconds,
                    SETUPS,
                )
                units = END_TO_END
            for note in result.get("notes", ()):
                print(f"note: {note}")
            print(json.dumps(emit(result, units)))
            return 0 if result["correct"] else 1

        scale = args.scale if args.scale is not None else 1.0
        ledger = {
            "seed": args.seed, "scale": scale, "claim": None, "workloads": {},
        }
        for name, workload in WORKLOADS.items():
            end_to_end = measure_end_to_end(
                harness, workload, args.seed, scale, reps, args.seconds, 1
            )
            per_layer = measure_per_layer(
                harness, workload, args.seed, scale, calibration
            )
            print_ledger(name, end_to_end, per_layer)
            ledger["workloads"][name] = {
                "why": workload.why,
                "correct": end_to_end["correct"] and per_layer["correct"],
                "attempted": end_to_end["attempted"],
                "failed": end_to_end["failed"],
                "digest": end_to_end["digest"],
                "end_to_end": end_to_end["metrics"],
                "per_layer": per_layer["metrics"],
                "notes": per_layer["notes"],
            }
        print(json.dumps(ledger))
        return 0 if all(w["correct"] for w in ledger["workloads"].values()) else 1
    finally:
        harness.close()


if __name__ == "__main__":
    sys.exit(main())
