"""schurcalc benchmark: one seeded, closed-loop operation stream per run.

    python3 schurbench/run.py --workload certify_cold --seed 1 --seconds 20 --trace 0

Runs the checkout's own src/ (PYTHONPATH=src), one operation in flight at
a time, in whole cycles until --seconds have passed and at least
MIN_CYCLES cycles are done.  Every output is checked against reference.py.
The last stdout line is the result JSON; the line before it records
provenance, raw wall times and the sample counts behind each percentile.
Times are corrected for machine-speed drift with calibration.py.  --trace 1 runs
the stream untraced and then traced for the same number of cycles and
reports per-layer metrics per cycle instead of the end-to-end ones.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import checks
import workloads
from tracer import TRACE_MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_CYCLES = 3          # with >= 32 operations a cycle, p90 has >= 10 samples beyond it
CLI_SETUP_REPEATS = 9   # cold `schurcalc --help` starts per run
WORKER_SETUP_REPEATS = 3
OP_TIMEOUT_S = 30.0     # the slowest operation takes about 3 s
CALIBRATE_EVERY_S = 0.25  # run the calibration kernel before an op once this much time passed
RUN_LIMIT_S = 110.0     # abandon the stream past this, counting the rest as failed


class Outcome:
    __slots__ = ("elapsed", "failure", "digest", "stdout_bytes")

    def __init__(self, elapsed, failure=None, digest=None, stdout_bytes=0):
        self.elapsed, self.failure = elapsed, failure
        self.digest, self.stdout_bytes = digest, stdout_bytes


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def verify(op: dict, payload_text: str) -> str | None:
    try:
        checks.check(op["expect"], json.loads(payload_text))
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    except checks.CheckFailed as exc:
        return str(exc)
    return None


class Helper:
    """A benchmark process that answers each JSON line on stdin with one on stdout."""

    def __init__(self, script: str, *args: str):
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen([sys.executable, str(BENCH / script), *args],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT, text=True)

    def request(self, message: dict, timeout: float = OP_TIMEOUT_S) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"{self.proc.args[1]} did not answer")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class CliRunner:
    """A fresh `python -m schurcalc` process per operation, started by spawner.py."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.traces: list[tuple[float, dict]] = []
        self.peak_kb = 0
        self.spawner = Helper("spawner.py")

    def spawn(self, argv: list[str]):
        if self.traced:
            command = [sys.executable, str(BENCH / "cli_child.py"), *argv]
        else:
            command = [sys.executable, "-m", "schurcalc", *argv]
        reply = self.spawner.request({"argv": command, "timeout": OP_TIMEOUT_S},
                                     timeout=2 * OP_TIMEOUT_S)
        self.peak_kb = max(self.peak_kb, reply["maxrss_kb"])
        lines = []
        for line in reply["stderr"].splitlines():
            if line.startswith(TRACE_MARKER):
                self.traces.append((reply["spawned"], json.loads(line[len(TRACE_MARKER):])))
            else:
                lines.append(line)
        return reply["elapsed"], reply["code"], reply["stdout"].encode("latin-1"), "\n".join(lines)

    def run(self, op: dict) -> Outcome:
        elapsed, code, out, err = self.spawn(op["argv"])
        digest = hashlib.sha256(out).hexdigest()
        failure = None
        if code is None:
            failure = "timeout"
        elif "Traceback" in err:
            failure = "traceback: " + err.strip().splitlines()[-1]
        elif code != checks.expected_exit(op["expect"]):
            failure = f"exit code {code}: {err.strip()}"
        else:
            failure = verify(op, out.decode(errors="replace"))
        return Outcome(elapsed, failure, digest, len(out))

    def setup(self, repeats: int) -> tuple[list[float], list[float]]:
        """Cold starts of `schurcalc --help` (interpreter, import, argparse): raw, corrected."""
        raw, samples = [], [self.calibrate()]
        for _ in range(repeats):
            elapsed, code, out, _ = self.spawn(["--help"])
            if code != 0 or b"usage" not in out:
                raise RuntimeError("`python -m schurcalc --help` failed")
            raw.append(elapsed)
            samples.append(self.calibrate())
        return raw, [x * calibration.scale(samples, i) for i, x in enumerate(raw)]

    def calibrate(self) -> float:
        return calibration.kernel()

    def close(self) -> None:
        self.spawner.close()


class WorkerRunner:
    """One long-lived library process (worker.py) serving the whole stream."""

    def __init__(self, traced: bool, warm: list):
        self.worker = Helper("worker.py", *(["--trace"] if traced else []))
        self.peak_kb = 0
        try:
            self.info = self.worker.request({"warmup": warm})
        except (RuntimeError, OSError):
            self.worker.close()
            raise RuntimeError("the worker failed during warm-up")
        info, samples = self.info, self.info["kernel_s"]
        self.setup_raw = info["import_s"] + sum(info["warmup_s"])
        self.setup_s = info["import_s"] * calibration.scale(samples, 0) + sum(
            step * calibration.scale(samples, i) for i, step in enumerate(info["warmup_s"]))

    def calibrate(self) -> float:
        return self.worker.request({"calibrate": True})["kernel_s"]

    def run(self, op: dict) -> Outcome:
        start = time.perf_counter()
        try:
            reply = self.worker.request(op["request"])
        except (RuntimeError, OSError) as exc:
            return Outcome(time.perf_counter() - start, f"worker: {exc}")
        if "error" in reply:
            return Outcome(time.perf_counter() - start, reply["error"].strip().splitlines()[-1])
        text = json.dumps(reply["payload"], sort_keys=True)
        return Outcome(reply["dt"], verify(op, text),
                       hashlib.sha256(text.encode()).hexdigest())

    def close(self) -> None:
        try:
            self.peak_kb = self.worker.request({"rss": True})["peak_kb"]
        except (RuntimeError, OSError):
            pass
        self.worker.close()


class Stream:
    """Latencies, failures and busy time of whole cycles of one operation list.

    raw holds wall times; latencies rescales each by the calibration kernel
    samples taken around it (calibration.scale).
    """

    def __init__(self):
        self.raw: list[float] = []
        self.sample_index: list[int] = []
        self.samples: list[float] = []
        self.attempted = self.failed = self.cycles = 0
        self.stdout_bytes = 0

    @property
    def latencies(self) -> list[float]:
        return [x * calibration.scale(self.samples, j)
                for x, j in zip(self.raw, self.sample_index)]

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def run(self, runner, ops: list, seconds: float, min_cycles: int, digests: dict) -> None:
        start = time.monotonic()
        last_sample = -math.inf
        while self.cycles < min_cycles or time.monotonic() - start < seconds:
            for i, op in enumerate(ops):
                self.attempted += 1
                if time.monotonic() - start > RUN_LIMIT_S:
                    self.failed += 1
                    continue
                if time.monotonic() - last_sample >= CALIBRATE_EVERY_S:
                    self.samples.append(runner.calibrate())
                    last_sample = time.monotonic()
                outcome = runner.run(op)
                failure = outcome.failure
                if failure is None and digests.setdefault(i, outcome.digest) != outcome.digest:
                    failure = "output differs from the first run of this operation"
                if failure is not None:
                    self.failed += 1
                    sys.stderr.write(f"FAILED {op.get('argv') or op['request']}: {failure}\n")
                self.raw.append(outcome.elapsed)
                self.sample_index.append(len(self.samples) - 1)
                self.stdout_bytes += outcome.stdout_bytes
            self.cycles += 1
            if time.monotonic() - start > RUN_LIMIT_S:
                break
        self.samples.append(runner.calibrate())


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """0.9 with >= 100 samples, else the highest percentile with >= 10 samples beyond it."""
    return 0.9 if n >= 100 else max(0.5, 1 - 10 / n)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(latencies: list[float], setup_times: list[float], verified: int) -> dict:
    p_tail = tail_percentile(len(latencies))
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, p_tail),
        "throughput_ops_s": verified / sum(latencies),
    }


def end_to_end(stream: Stream, setup: tuple[list[float], list[float]], peak_kb: int,
               info: dict) -> dict:
    """The end-to-end metrics; info gets the raw wall-time versions and sample counts."""
    verified = stream.attempted - stream.failed
    info["raw"] = timings(stream.raw, setup[0], verified)
    info["samples"].update({
        "latency": len(stream.raw), "latency_p90_percentile": tail_percentile(len(stream.raw)),
        "setup": len(setup[0]), "cycles": stream.cycles, "calibrations": len(stream.samples)})
    info["calibration"] = {"reference_s": calibration.REFERENCE_S,
                           "median_kernel_s": statistics.median(stream.samples)}
    out = {name: metric(value, "1/s" if name == "throughput_ops_s" else "s")
           for name, value in timings(stream.latencies, setup[1], verified).items()}
    out["peak_rss_mb"] = metric(peak_kb / 1024, "MB")
    return out


# name -> (unit, better); the values come from per_layer() below
PER_LAYER = {
    "process.interpreter_s": ("s", "lower"),
    "process.import_s": ("s", "lower"),
    "cli.main_self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "parsing.evaluate_text_s": ("s", "lower"),
    "parsing.evaluate_text_calls": ("count", "lower"),
    "polynomial.mul_calls": ("count", "lower"),
    "polynomial.mul_s": ("s", "lower"),
    "polynomial.input_terms": ("count", "lower"),
    "linalg.rref_calls": ("count", "lower"),
    "linalg.rref_s": ("s", "lower"),
    "linalg.rref_cells": ("count", "lower"),
    "linalg.solve_exact_calls": ("count", "lower"),
    "schur.to_schur_calls": ("count", "lower"),
    "schur.to_schur_self_s": ("s", "lower"),
    "schur.to_schur_cold_s": ("s", "lower"),
    "schur.to_schur_warm_s": ("s", "lower"),
    "schur.pd_max": ("count", "lower"),
    "schur.expansion_terms": ("count", "lower"),
    "schur.lr_multiply_s": ("s", "lower"),
    "schur.schur_dual_jt.hit_ratio": ("ratio", "higher"),
    "qtilde.qtilde_s": ("s", "lower"),
    "qtilde.qtilde.hit_ratio": ("ratio", "higher"),
    "rings.gr_reduce_calls": ("count", "lower"),
    "rings.gr_reduce_self_s": ("s", "lower"),
    "rings.lg_reduce_calls": ("count", "lower"),
    "rings.lg_reduce_self_s": ("s", "lower"),
    "rings.lg_system_cells": ("count", "lower"),
    "rings.pairing_matrix_s": ("s", "lower"),
    "positivity.certify_self_s": ("s", "lower"),
    "legendrian.legendrian_positivity_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# per-layer metric -> (tracer stem, field): field 0 calls, 1 inclusive s, 2 self s
CALL_FIELDS = {
    "cli.main_self_s": ("cli.main", 2),
    "parsing.evaluate_text_s": ("parsing.evaluate_text", 1),
    "parsing.evaluate_text_calls": ("parsing.evaluate_text", 0),
    "polynomial.mul_calls": ("polynomial.mul", 0),
    "polynomial.mul_s": ("polynomial.mul", 1),
    "linalg.rref_calls": ("linalg.rref", 0),
    "linalg.rref_s": ("linalg.rref", 1),
    "linalg.solve_exact_calls": ("linalg.solve_exact", 0),
    "schur.to_schur_calls": ("schur.to_schur", 0),
    "schur.to_schur_self_s": ("schur.to_schur", 2),
    "schur.lr_multiply_s": ("schur.lr_multiply", 1),
    "qtilde.qtilde_s": ("qtilde.qtilde", 1),
    "rings.gr_reduce_calls": ("rings.gr_reduce", 0),
    "rings.gr_reduce_self_s": ("rings.gr_reduce", 2),
    "rings.lg_reduce_calls": ("rings.lg_reduce", 0),
    "rings.lg_reduce_self_s": ("rings.lg_reduce", 2),
    "positivity.certify_self_s": ("positivity.certify", 2),
    "legendrian.legendrian_positivity_s": ("legendrian.legendrian_positivity", 1),
}

# per-layer metric -> (tracer extra counter, the stem it depends on)
EXTRA_FIELDS = {
    "polynomial.input_terms": ("input_terms", "schur.to_schur"),
    "linalg.rref_cells": ("rref_cells", "linalg.rref"),
    "schur.to_schur_cold_s": ("to_schur_cold_s", "schur.to_schur"),
    "schur.to_schur_warm_s": ("to_schur_warm_s", "schur.to_schur"),
    "schur.expansion_terms": ("expansion_terms", "schur.to_schur"),
    "rings.lg_system_cells": ("lg_system_cells", "rings.lg_reduce"),
}


def per_layer(reports: list[dict], processes: list[tuple[float, float]], cycles: int,
              stdout_bytes: int, overhead: float) -> dict:
    """Per-cycle sums of the traced processes' counters; process.* are medians."""
    calls: dict[str, list] = {}
    extra: dict[str, float] = {}
    caches: dict[str, list] = {}
    absent: set = set()
    for report in reports:
        for stem, values in report["calls"].items():
            total = calls.setdefault(stem, [0, 0.0, 0.0])
            for k in range(3):
                total[k] += values[k]
        for key, value in report["extra"].items():
            extra[key] = max(extra.get(key, 0), value) if key == "pd_max" \
                else extra.get(key, 0) + value
        for stem, (hits, misses) in report["caches"].items():
            total = caches.setdefault(stem, [0, 0])
            total[0] += hits
            total[1] += misses
        absent.update(report["absent"])
    values: dict = {
        "process.interpreter_s": statistics.median(p[0] for p in processes),
        "process.import_s": statistics.median(p[1] for p in processes),
        "cli.stdout_bytes": stdout_bytes / cycles,
        "trace.overhead_frac": overhead,
        "rings.pairing_matrix_s": None if {"rings.gr_pairing_matrix", "rings.lg_pairing_matrix"}
        <= absent else sum(calls.get(stem, [0, 0.0])[1] / cycles
                           for stem in ("rings.gr_pairing_matrix", "rings.lg_pairing_matrix")),
        "schur.pd_max": None if "schur.to_schur" in absent else extra.get("pd_max", 0),
    }
    for name, (stem, field) in CALL_FIELDS.items():
        values[name] = None if stem in absent else calls.get(stem, [0, 0.0, 0.0])[field] / cycles
    for name, (key, stem) in EXTRA_FIELDS.items():
        values[name] = None if stem in absent else extra.get(key, 0) / cycles
    for stem in ("schur.schur_dual_jt", "qtilde.qtilde"):
        hits, misses = caches.get(stem, (0, 0))
        values[stem + ".hit_ratio"] = None if stem + ".cache" in absent \
            else hits / (hits + misses) if hits + misses else 0.0
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        out[name] = metric(values[name], unit)
        if values[name] is None:
            out[name]["absent"] = True
    return out


def provenance(args, loadavg_start) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "schurcalc").glob("*.py")):
        sources.update(path.name.encode() + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "git_commit": commit,
            "src_sha256": sources.hexdigest(), "loadavg_start": loadavg_start,
            "loadavg_end": os.getloadavg()}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def open_runner(workload: str, traced: bool, ops: list):
    if workload == "rings_warm":
        return WorkerRunner(traced, workloads.warmup(ops))
    return CliRunner(traced)


def untraced_run(args, ops: list, info: dict) -> tuple[dict, int, int]:
    min_cycles = 1 if args.tiny else MIN_CYCLES
    if args.workload == "rings_warm":
        runners = []
        for _ in range(2 if args.tiny else WORKER_SETUP_REPEATS):
            if runners:
                runners[-1].close()
            runners.append(WorkerRunner(False, workloads.warmup(ops)))
        setup = ([w.setup_raw for w in runners], [w.setup_s for w in runners])
    else:
        runners = [CliRunner(False)]
        try:
            runners[0].setup(1)  # untimed: writes the bytecode caches of a fresh checkout
            setup = runners[0].setup(2 if args.tiny else CLI_SETUP_REPEATS)
        except RuntimeError:
            runners[0].close()
            raise
    stream = Stream()
    try:
        stream.run(runners[-1], ops, args.seconds, min_cycles, {})
    finally:
        runners[-1].close()
    peak_kb = max(runner.peak_kb for runner in runners)
    return end_to_end(stream, setup, peak_kb, info), stream.attempted, stream.failed


def traced_run(args, ops: list, info: dict) -> tuple[dict, int, int]:
    digests: dict = {}
    plain = Stream()
    runner = open_runner(args.workload, False, ops)
    try:
        plain.run(runner, ops, args.seconds / 2, 1, digests)
    finally:
        runner.close()
    traced = Stream()
    runner = open_runner(args.workload, True, ops)
    try:
        traced.run(runner, ops, 0, plain.cycles, digests)
        if isinstance(runner, WorkerRunner):
            reports = [runner.worker.request({"trace": True})]
            processes = [(runner.info["started"] - runner.worker.spawned,
                          runner.info["import_s"])]
        else:
            reports = [report for _, report in runner.traces]
            processes = [(report["process"]["started"] - spawned, report["process"]["import_s"])
                         for spawned, report in runner.traces]
    finally:
        runner.close()
    if not reports:
        raise RuntimeError("no trace was recorded")
    info["samples"].update({"cycles": traced.cycles, "traced_processes": len(processes)})
    overhead = traced.busy / plain.busy - 1
    metrics = per_layer(reports, processes, traced.cycles, traced.stdout_bytes, overhead)
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small cycles and one cycle minimum, for the self-test")
    args = parser.parse_args()
    if not (SRC / "schurcalc" / "__init__.py").is_file():
        sys.stderr.write(f"schurbench: no schurcalc package under {SRC}; "
                         "run from a checkout that has src/schurcalc\n")
        return 2
    ops = workloads.WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"),
                                             args.tiny)
    loadavg_start = os.getloadavg()
    info: dict = {"samples": {"ops_per_cycle": len(ops)}}
    try:
        run = traced_run if args.trace else untraced_run
        metrics, attempted, failed = run(args, ops, info)
    except RuntimeError as exc:
        sys.stderr.write(f"schurbench: {exc}\n")
        return 3
    info = {**provenance(args, loadavg_start), **info}
    print(json.dumps({"provenance": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
