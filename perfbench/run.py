"""Benchmark of rulex's user pipeline: synth (untimed), load, train, infer, eval.

    python3 perfbench/run.py --workload train-std --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository.  The workload's corpus is generated
from --seed, then passes of ``rulex train``, ``rulex infer`` and ``rulex
eval`` run in this process through ``rulex.cli.main``, one after another,
until the next pass would end after --seconds.  Timings are medians over the
passes, in seconds scaled to a nominal host speed by the probe in
hostspeed.py; the wall seconds are printed beside them.  Every pass's outputs
are checked, and the passes must agree byte for byte.  With --trace 1 each untraced pass is followed by a pass traced from
outside the program (see tracing.py), and the per-layer numbers are printed
instead of the end-to-end ones.  ``--workload all`` runs the three workloads
one after another, each in its own process.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
An operation is one command or one test document's predictions.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy loads: an unpinned OpenBLAS starts a second
# thread, which makes CPU time exceed wall time and couples runs to the load
# of the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import hostspeed
import tracing
from workloads import SMOKE, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
INFER_MIN_S = 3.0
RECOVERY_TOP_K = 5  # acceptance criterion 7: planted rule among the generator's top 5

# Set-up as a user pays it: a fresh interpreter imports rulex and loads every
# split of the corpus.  Timed inside the child, so interpreter start-up is out;
# prints the scaled and the wall seconds.
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[3])
from hostspeed import HostSpeed

def setup():
    sys.path.insert(0, sys.argv[1])
    from rulex import core
    vocab = core.read_vocab_file(sys.argv[2] + "/vocab.txt")
    for split in ("train", "dev", "test"):
        core.load_corpus(sys.argv[2] + "/" + split + ".jsonl", vocab)

_, window = HostSpeed().measure(setup)
print(window.scaled_s, window.wall_s)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "infer_docs_per_s": "docs/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}


def import_rulex():
    """Import rulex from this checkout's sources, never from an installed copy."""
    package = SRC / "rulex"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no rulex sources at {package}")
    sys.path.insert(0, str(SRC))
    import rulex
    import rulex.cli
    import rulex.metrics

    if Path(rulex.__file__).resolve().parent != package.resolve():
        raise ImportError(f"rulex was imported from {rulex.__file__}, not from {package}")
    return rulex


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


@dataclass
class PassResult:
    attempted: int
    failed: int = 0
    train: hostspeed.Window | None = None
    infer: list[hostspeed.Window] = field(default_factory=list)
    digest: str | None = None
    report: dict | None = None
    rules_recovered: int | None = None
    problems: list[str] = field(default_factory=list)


class Pipeline:
    """One workload's corpus and the commands of a pipeline pass over it."""

    def __init__(self, rulex, work: Path, config_path: Path, beam: int):
        self.rulex = rulex
        self.host = hostspeed.HostSpeed()
        self.work = work
        self.config = config_path
        self.beam = beam
        self.corpus = work / "corpus"
        self.vocab = rulex.core.read_vocab_file(self.corpus / "vocab.txt")
        self.test = rulex.core.load_corpus(self.corpus / "test.jsonl", self.vocab)

    def command(self, argv: list[str], tracer: tracing.Tracer | None) -> tuple[bool, hostspeed.Window]:
        """Run one rulex command; (exited 0 without raising, its timing window)."""

        def call():
            try:
                return self.rulex.cli.main([str(arg) for arg in argv])
            except Exception:
                traceback.print_exc()
                return None

        gc.collect()
        if tracer is not None:
            tracing.install(tracer, self.rulex)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code, window = self.host.measure(call)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return code == 0, window

    def run(self, index: int, tracer: tracing.Tracer | None = None) -> PassResult:
        n_docs = len(self.test.docs)
        result = PassResult(attempted=3 + n_docs)
        run_dir = self.work / f"run{index}"
        predictions = self.work / f"predictions{index}.jsonl"
        report = self.work / f"eval{index}.json"
        test = self.corpus / "test.jsonl"

        ok, result.train = self.command(
            ["train", "--corpus", self.corpus, "--out", run_dir, "--config", self.config], tracer
        )
        if not ok:
            result.failed = result.attempted
            result.problems.append("rulex train failed")
            return result
        # Inference is short next to training on most workloads, so it repeats
        # until it has run INFER_MIN_S; a traced pass runs it once.
        while True:
            ok, window = self.command(["infer", "--run", run_dir, "--documents", test, "--out", predictions], tracer)
            if not ok:
                result.failed = 2 + n_docs  # this command, the documents it should predict, eval
                result.problems.append("rulex infer failed")
                return result
            if result.infer:
                result.attempted += 1
            result.infer.append(window)
            if tracer is not None or sum(w.wall_s for w in result.infer) >= INFER_MIN_S:
                break
        for doc_id, problems in checks.check_predictions(predictions, self.test, self.vocab, self.rulex).items():
            result.failed += 1
            result.problems.extend(f"{doc_id}: {problem}" for problem in problems)
        ok, _ = self.command(
            ["eval", "--predictions", predictions, "--gold", test, "--vocab", self.corpus / "vocab.txt",
             "--eval-rules", self.corpus / "rules.txt", "--out", report],
            tracer,
        )
        if ok:
            result.report = json.loads(report.read_text(encoding="utf-8"))
        else:
            result.failed += 1
            result.problems.append("rulex eval failed")
        result.digest = checks.digest(run_dir, predictions)
        if index == 0:
            result.rules_recovered = self.rules_recovered(run_dir)
        shutil.rmtree(run_dir)
        predictions.unlink()
        report.unlink(missing_ok=True)
        return result

    def rules_recovered(self, run_dir: Path) -> int:
        """Planted rules found among the trained generator's top rules for their head."""
        core = self.rulex.core
        model = self.rulex.generator.RuleGenerator.load(run_dir / "generator.json")
        planted = [rule for rule, _ in core.read_rules_file(self.corpus / "rules.txt", self.vocab)]
        return sum(
            1 for rule in planted
            if rule.body in {r.body for r in model.top_rules(rule.head, RECOVERY_TOP_K, self.beam)}
        )


def measure_setup(corpus: Path) -> tuple[float, float]:
    """Median (scaled, wall) seconds of SETUP_REPEATS fresh-interpreter set-ups."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(corpus), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values = done.stdout.strip().splitlines()[-1].split()
        scaled.append(float(values[0]))
        wall.append(float(values[1]))
    return statistics.median(scaled), statistics.median(wall)


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def write_trace(path: Path, tracer: tracing.Tracer) -> None:
    """Aggregate counters, then the spans of one traced pass, as JSON lines."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for name, (calls, total, self_time) in sorted(tracer.stats.items()):
            fh.write(json.dumps({"name": name, "calls": calls, "total_s": total, "self_s": self_time}) + "\n")
        for name, (count,) in sorted(tracer.counts.items()):
            fh.write(json.dumps({"name": name, "count": count}) + "\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(json.dumps({"span": i, "name": name, "start": start - origin, "end": end - origin,
                                 "parent": parent}) + "\n")


def run_passes(pipeline: Pipeline, seconds: int, trace: bool):
    """Closed loop of passes until the next one would end after ``seconds``.

    With ``trace`` each untraced pass is followed by a traced one, so both
    sides see the same machine state.
    """
    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, tracing.Tracer]] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(pipeline.run(len(untraced) + len(traced)))
        if trace:
            tracer = tracing.Tracer()
            traced.append((pipeline.run(len(untraced) + len(traced), tracer), tracer))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return untraced, traced


def traced_metrics(traced: list[tuple[PassResult, tracing.Tracer]], untraced_train_s: float) -> dict:
    """Per-layer medians over the traced passes, plus the tracing overhead.

    Layer times are seconds as the wrappers read them, so they are set
    against the commands' clock readings, probes included; the overhead
    compares scaled train times, so host speed drops out of it.
    """
    layers: dict[str, tuple[list, str]] = {}
    for result, tracer in traced:
        if result.digest is None:
            continue
        layer = tracing.layer_metrics(tracer, result.train.elapsed_s, result.infer[0].elapsed_s)
        for name, (value, unit) in layer.items():
            layers.setdefault(name, ([], unit))[0].append(value)
    metrics = {name: (median_or_zero(values), unit) for name, (values, unit) in layers.items()}
    traced_train_s = median_or_zero([r.train.scaled_s for r, _ in traced if r.train is not None])
    overhead = (traced_train_s - untraced_train_s) / untraced_train_s if untraced_train_s else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    rulex = import_rulex()
    print(f"# workload={workload.name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK))
    try:
        synth, em = workload.configs(seed)
        config_path = work / "config.json"
        config_path.write_text(json.dumps({"synth": synth, "em": em}), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            if rulex.cli.main(["synth", "--config", str(config_path), "--out", str(work / "corpus")]) != 0:
                raise RuntimeError("rulex synth failed")
        setup_s, setup_wall_s = (None, None) if trace else measure_setup(work / "corpus")
        pipeline = Pipeline(rulex, work, config_path, em["beam"])
        untraced, traced = run_passes(pipeline, seconds, trace)

        results = untraced + [result for result, _ in traced]
        first = results[0]
        problems = [problem for result in results for problem in result.problems]
        digests = {result.digest for result in results}
        if len(digests) != 1:
            problems.append(f"passes disagree: {len(digests)} different digests")
        attempted = sum(result.attempted for result in results)
        failed = sum(result.failed for result in results)
        # The quality numbers repeat exactly at a fixed seed, but across seeds
        # they spread by up to a quarter (a planted rule is learned or not, and
        # train-wide learns little), too widely for a bound on their median.
        # They are printed with every run and kept as per-layer records; the
        # digest is what pins them.
        recorded = {
            "metrics.engine_f1": (first.report["f1"]["f1"] if first.report else 0.0, "ratio"),
            "metrics.logic_score": (first.report["logic"]["score"] if first.report else 0.0, "ratio"),
            "generator.rules_recovered": (first.rules_recovered or 0, "count"),
        }
        print(f"# passes={len(results)} digest={first.digest}")
        for label, key in (("", "scaled_s"), (" wall", "wall_s")):
            print(f"# train{label} s per pass {[round(getattr(r.train, key), 4) for r in results if r.train]}")
            print(f"# infer{label} s per pass {[[round(getattr(w, key), 4) for w in r.infer] for r in results]}")
        if setup_s is not None:
            print(f"# setup s {setup_s:.4f}, wall {setup_wall_s:.4f}")
        for problem in problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)

        train_s = median_or_zero([r.train.scaled_s for r in untraced if r.train is not None])
        if trace:
            metrics = {**traced_metrics(traced, train_s), **recorded}
            if traced:
                trace_path = WORK / f"trace-{workload.name}-seed{seed}.jsonl"
                write_trace(trace_path, traced[-1][1])
                print(f"# spans written to {trace_path.relative_to(ROOT)}")
        else:
            docs = len(pipeline.test.docs)
            metrics = {
                "setup_s": setup_s,
                "train_s": train_s,
                "infer_docs_per_s": median_or_zero([docs / w.scaled_s for r in untraced for w in r.infer]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ops_ok_frac": 1.0 - failed / attempted,
            }
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
            summary = {
                **{name: metrics[name] for name in ("setup_s", "train_s", "infer_docs_per_s", "peak_rss_mb")},
                "engine_f1": recorded["metrics.engine_f1"],
                "logic_score": recorded["metrics.logic_score"],
                "rules_recovered": recorded["generator.rules_recovered"],
                "ops_failed_frac": (failed / attempted, "ratio"),
            }
            for name, (value, unit) in summary.items():
                print(f"# {name:<40} {value:>14.6g} {unit}")
        if trace:
            for name, (value, unit) in metrics.items():
                print(f"# {name:<40} {value:>14.6g} {unit}")
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each main workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, *SMOKE, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # A terminated run still removes its work directory and waits for its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            workload = WORKLOADS.get(args.workload) or SMOKE[args.workload]
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
