"""Measure one workload in a fresh process: ``python worker.py <plan.json>``.

``run.py`` starts this process with one BLAS/OpenMP thread and ``src`` on
``PYTHONPATH``, after writing the configs and a plan.  One client runs the
scenarios in a closed loop: the next starts when the previous one ends.
Every artifact is hashed; the first of each config is kept for the
oracles and every later one must be byte-identical to it.  Results go to
``result.json`` beside the plan.
"""

import contextlib
import hashlib
import importlib.metadata
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import metrics
from tracer import Tracer

SETUP_SAMPLES = 11
COLD_SAMPLES = 9
IMPORT_SAMPLES = 3
# at least this many closed-loop samples, so that the tail percentile exists
MIN_RUN_SAMPLES = 12
MIN_VALIDATE_PER_TYPE = 2
# validation takes this share of each type's closed-loop time, with at
# most VALIDATE_PER_ROUND samples per type between rounds, so that
# millisecond validations neither crowd out the runs nor bunch up early
VALIDATE_SHARE = 0.4
VALIDATE_PER_ROUND = 10
SUBPROCESS_TIMEOUT = 120

IMPORT_SNIPPET = ("import time; t0 = time.perf_counter(); import biham.cli; "
                  "print(time.perf_counter() - t0)")

# host probe: about 15 ms of the three kinds of work biham's scenarios
# spend their time on: interpreter loops, small complex matrix products,
# and building and walking JSON documents
PROBE_LOOPS = 48000
PROBE_PRODUCTS = 1200
PROBE_RECORDS = 600


def host_probe():
    """Seconds for a fixed kernel that runs no biham code.

    Run between scenarios, it tracks how fast the shared host is at that
    moment; ``metrics.end_to_end`` scales the measured times by it.
    """
    import numpy as np

    matrix = np.full((8, 8), 0.1) + 0.05j
    vector = np.ones(8, dtype=complex)
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(PROBE_LOOPS):
        table[i & 63] = total
        total += i * i % 7
    for _ in range(PROBE_PRODUCTS):
        vector = matrix @ vector
        vector = vector / abs(vector[0])
    doc = json.loads(json.dumps([{"re": [i * 0.5] * 8, "im": [0.25] * 8}
                                 for i in range(PROBE_RECORDS)]))
    total += sum(isinstance(x, float) for row in doc for x in row["re"] + row["im"])
    return time.perf_counter() - start


def call(main, argv):
    """One CLI invocation; an uncaught exception counts as a failed scenario."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return 1


class Ledger:
    """Artifact hashes per config: the first run of a config is kept, later runs must match."""

    def __init__(self, keep_dir):
        self.keep_dir = Path(keep_dir)
        self.keep_dir.mkdir(parents=True, exist_ok=True)
        self.digest = {}
        self.kept = {}
        self.stats = defaultdict(lambda: {"runs": 0, "exit_failures": 0, "mismatches": 0})

    def record(self, sid, code, artifact):
        entry = self.stats[sid]
        entry["runs"] += 1
        if code != 0 or not artifact.is_file():
            entry["exit_failures"] += 1
            return
        data = artifact.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if sid not in self.digest:
            self.digest[sid] = digest
            kept = self.keep_dir / f"{sid}{artifact.suffix}"
            kept.write_bytes(data)
            self.kept[sid] = str(kept)
        elif digest != self.digest[sid]:
            entry["mismatches"] += 1


class Workload:
    def __init__(self, plan):
        self.plan = plan
        self.root = Path(plan["root"])
        self.work = Path(plan["work"])
        self.scenarios = plan["scenarios"]
        self.types = sorted({s["command"] for s in self.scenarios})
        self.ledger = Ledger(self.work / "keep")
        self.validate_failures = 0
        self.validate_runs = 0

    def out_dir(self, scenario, kind="out"):
        return self.work / kind / scenario["id"]

    def argv(self, scenario, out_dir):
        return [scenario["command"], "--config", scenario["config"], "--out", str(out_dir)]

    def run_once(self, scenario, main):
        """One in-process scenario; returns its wall time."""
        out_dir = self.out_dir(scenario)
        start = time.perf_counter()
        code = call(main, self.argv(scenario, out_dir))
        elapsed = time.perf_counter() - start
        self.ledger.record(scenario["id"], code, out_dir / scenario["output"])
        return elapsed

    def validate_once(self, scenario, main):
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = call(main, self.argv(scenario, self.out_dir(scenario)) + ["--validate-only"])
        elapsed = time.perf_counter() - start
        self.validate_runs += 1
        if code != 0 or json.loads(buf.getvalue()) != []:
            self.validate_failures += 1
        return elapsed

    def rounds(self, step, deadline, min_samples, between=None):
        """Closed loop over the pool in rounds of one scenario per type.

        ``step(scenario)`` runs one scenario and returns its sample;
        ``between(rounds_left)`` runs after each round.  A round starts only
        while fewer than ``min_samples`` samples exist or the rounds so far
        say it ends before ``deadline``.
        """
        samples = defaultdict(list)
        durations = []
        k = 0
        while True:
            done = sum(len(v) for v in samples.values())
            expected = statistics.median(durations) if durations else 0.0
            if done >= min_samples and time.perf_counter() + expected > deadline:
                break
            start = time.perf_counter()
            for _ in self.types:
                scenario = self.scenarios[k % len(self.scenarios)]
                samples[scenario["command"]].append(step(scenario))
                k += 1
            if between:
                left = (deadline - time.perf_counter()) / statistics.median(durations or [1.0])
                between(max(left, (min_samples - done) / len(self.types) - 1, 0.0))
            durations.append(time.perf_counter() - start)
        return dict(samples)

    def subprocess(self, args):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=self.root, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT)
        return time.perf_counter() - start, proc

    def fresh_import(self):
        """Seconds to ``import biham.cli`` in a fresh interpreter."""
        _, proc = self.subprocess(["-c", IMPORT_SNIPPET])
        if proc.returncode != 0:
            raise RuntimeError(f"import biham.cli failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    def cold_run(self):
        """Wall time of ``python -m biham.cli`` on the workload's first config."""
        scenario = self.scenarios[0]
        out_dir = self.out_dir(scenario, "cold")
        elapsed, proc = self.subprocess(["-m", "biham.cli", *self.argv(scenario, out_dir)])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        self.ledger.record(scenario["id"], proc.returncode, out_dir / scenario["output"])
        return elapsed

    def import_breakdown(self):
        runs = []
        for _ in range(IMPORT_SAMPLES):
            _, proc = self.subprocess(["-X", "importtime", "-c", "import biham.cli"])
            runs.append(metrics.import_breakdown(proc.stderr))
        return {key: statistics.median(r[key] for r in runs) for key in runs[0]}

    def warm_up(self, main):
        """One untimed run of each scenario type, so that lazy set-up inside
        the process (numpy's LAPACK, jsonschema's validators) is not sampled.
        Its artifacts still enter the ledger."""
        for scenario in self.scenarios[:len(self.types)]:
            self.run_once(scenario, main)

    def measure(self, main):
        """Closed-loop runs, with validation, cold runs and fresh imports spread between rounds.

        On a shared machine the host's speed drifts over seconds, so every
        metric samples the whole run rather than a phase of its own.
        """
        deadline = time.perf_counter() + self.plan["seconds"]
        self.fresh_import()  # untimed: the first import also compiles bytecode
        self.warm_up(main)
        extras = [x for pair in itertools.zip_longest(
            [("setup_s", self.fresh_import)] * SETUP_SAMPLES,
            [("cold_run_s", self.cold_run)] * COLD_SAMPLES) for x in pair if x]
        result = {"setup_s": [], "cold_run_s": [], "validate_s": defaultdict(list),
                  "probe_s": []}
        spent = defaultdict(float)

        def run(scenario):
            elapsed = self.run_once(scenario, main)
            spent["run"] += elapsed
            result["probe_s"].append(host_probe())
            return elapsed

        def between(rounds_left):
            for scenario in self.scenarios[:len(self.types)]:
                kind = scenario["command"]
                samples = result["validate_s"][kind]
                for _ in range(VALIDATE_PER_ROUND):
                    if (len(samples) >= MIN_VALIDATE_PER_TYPE and spent[kind]
                            >= VALIDATE_SHARE * spent["run"] / len(self.types)):
                        break
                    samples.append(self.validate_once(scenario, main))
                    spent[kind] += samples[-1]
            for _ in range(math.ceil(len(extras) / max(rounds_left, 1.0))):
                if extras:
                    key, sample = extras.pop(0)
                    result[key].append(sample())
                    result["probe_s"].append(host_probe())

        result["run_s"] = self.rounds(run, deadline, MIN_RUN_SAMPLES, between)
        for key, sample in extras:
            result[key].append(sample())
            result["probe_s"].append(host_probe())
        result["validate_s"] = dict(result["validate_s"])
        return result

    def measure_traced(self, main):
        """Each config untraced, then traced, in turn; spans come from the traced runs."""
        deadline = time.perf_counter() + self.plan["seconds"]
        imports = self.import_breakdown()
        self.warm_up(main)
        tracer = Tracer()
        untraced = defaultdict(list)
        traced_count = 0

        def pair(scenario):
            nonlocal traced_count
            untraced[scenario["command"]].append(self.run_once(scenario, main))
            tracer.scenario = traced_count
            with tracer:
                elapsed = self.run_once(scenario, main)
            traced_count += 1
            return elapsed

        traced = self.rounds(pair, deadline, 2 * len(self.types))
        tracer.write(self.work / "spans.csv")
        return {"per_layer": metrics.per_layer(tracer.spans, tracer.counts, traced_count,
                                               traced, dict(untraced), imports),
                "traced_s": traced, "untraced_s": dict(untraced)}


def peak_rss_mb():
    """Peak resident set of this process image.

    ``getrusage`` is no use here: its maximum survives fork and exec, so it
    would report the parent's peak whenever that is higher.  ``VmHWM`` starts
    afresh with the new address space at exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def provenance():
    import numpy

    blas = "unknown"
    config = getattr(numpy.__config__, "CONFIG", None)
    if config:
        dep = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{dep.get('name', '?')} {dep.get('version', '?')}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": blas,
        "threads": {key: os.environ.get(key) for key in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
    }


def main(plan_path):
    plan = json.loads(Path(plan_path).read_text())
    import biham
    from biham.cli import main as biham_main

    src = Path(plan["root"]) / "src"
    if Path(biham.__file__).resolve().parent != (src / "biham").resolve():
        raise RuntimeError(f"biham imported from {biham.__file__}, not from {src}")
    for kind in ("out", "cold", "keep"):
        shutil.rmtree(Path(plan["work"]) / kind, ignore_errors=True)
    workload = Workload(plan)
    if plan["trace"]:
        result = workload.measure_traced(biham_main)
    else:
        result = workload.measure(biham_main)
    result.update(
        peak_rss_mb=peak_rss_mb(),
        ledger=dict(workload.ledger.stats),
        kept=workload.ledger.kept,
        validate_runs=workload.validate_runs,
        validate_failures=workload.validate_failures,
        provenance=provenance(),
    )
    (Path(plan["work"]) / "result.json").write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main(sys.argv[1])
