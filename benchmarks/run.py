"""End-to-end benchmark of the biham CLI.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload <name|all> --seed N --seconds S --trace 0|1

For each workload this generates seeded scenario configs, runs them in a
fresh worker process with one BLAS/OpenMP thread (one client, closed loop),
checks every artifact with an independent oracle and prints each metric by
name with its unit.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a separate traced run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Scratch files go to ``.bench_work/`` in the checkout.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy is imported, here and in the worker

import metrics  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

WORKER_TIMEOUT = 160


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def run_worker(plan_path):
    """Run the worker in its own session, so a timeout also stops its children."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT} s")


def failures(scenarios, result):
    """Failed scenarios, oracle verdicts and attempts, from the worker's ledger."""
    by_id = {s.id: s for s in scenarios}
    failed, verdicts = result["validate_failures"], {}
    attempted = result["validate_runs"]
    for sid, entry in result["ledger"].items():
        attempted += entry["runs"]
        kept = result["kept"].get(sid)
        problems = (oracles.check(by_id[sid], Path(kept).read_text()) if kept
                    else ["no artifact"])
        verdicts[sid] = problems
        if problems:
            failed += entry["runs"]
        else:
            failed += entry["exit_failures"] + entry["mismatches"]
    return attempted, failed, verdicts


def run_workload(name, seed, seconds, trace):
    work = WORK / name
    configs = work / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    for old in configs.glob("*.json"):
        old.unlink()
    scenarios = workloads.generate(name, seed, ROOT)
    plan = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "root": str(ROOT), "work": str(work),
        "scenarios": [{"id": s.id, "command": s.command, "config": str(s.write(configs)),
                       "output": s.config["output"]} for s in scenarios],
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    start = time.perf_counter()
    code = run_worker(plan_path)
    if code != 0 or not result_path.is_file():
        raise RuntimeError(f"worker for {name} exited with {code}")
    result = json.loads(result_path.read_text())
    attempted, failed, verdicts = failures(scenarios, result)
    extra = {}
    if trace:
        values = result["per_layer"]
        units = metrics.PER_LAYER
        counts = {"traced": {k: len(v) for k, v in result["traced_s"].items()},
                  "untraced": {k: len(v) for k, v in result["untraced_s"].items()}}
        # layer self times are means per traced scenario, so the share is of the mean
        traced = [t for v in result["traced_s"].values() for t in v]
        layers = {layer: values[f"{layer}.self_s"] for layer in metrics.LAYERS}
        top = max(layers, key=layers.get)
        extra["largest_layer"] = {"layer": top, "self_s": layers[top],
                                  "share_of_traced_run": layers[top] * len(traced) / sum(traced)}
    else:
        values, counts, extra["host"] = metrics.end_to_end(result)
        units = metrics.END_TO_END
    record = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "loop": "closed, 1 client", "git_sha": git_sha(), **result["provenance"],
        "samples": counts, "wall_s": time.perf_counter() - start,
        "oracle_failures": {k: v for k, v in verdicts.items() if v}, **extra,
    }
    (work / "provenance.json").write_text(json.dumps(record, indent=1))
    return values, units, attempted, failed, record


def report(name, values, units, attempted, failed, record):
    print(f"== {name}: seed {record['seed']}, trace {record['trace']}, {record['loop']}, "
          + " ".join(f"{k}={v}" for k, v in record["threads"].items()))
    for key, value in values.items():
        print(f"  {key:40s} {value:14.6g} {units[key]}")
    print(f"  {'failed_ratio':40s} {failed / attempted:14.6g} ratio ({failed} of {attempted} scenarios)")
    if record["trace"]:
        top = record["largest_layer"]
        print(f"  largest self-time layer: {top['layer']}, {top['self_s']:.4g} s per scenario, "
              f"{top['share_of_traced_run']:.1%} of the mean traced scenario")
    else:
        tail = record["samples"]["run_tail_s"]
        print(f"  run_tail_s is p{tail['percentile']:.1f} of {tail['samples']} samples")
        host = record["host"]
        print(f"  times above are scaled by the host speed {host['host_speed']:.4f} "
              f"(probe at {metrics.PROBE_NOMINAL_S} s / its mean); as measured: "
              + ", ".join(f"{k} {v:.6g} s" for k, v in host["measured"].items()))
    for sid, problems in record["oracle_failures"].items():
        print(f"  oracle {sid}: " + "; ".join(problems))
    print("provenance " + json.dumps(record, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS + workloads.EXTRA_WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/biham/cli.py", str(workloads.SWEEP_FIXTURE))
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a biham checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = (workloads.WORKLOADS + workloads.EXTRA_WORKLOADS if args.workload == "all"
             else (args.workload,))
    totals = {"attempted": 0, "failed": 0}
    merged = {}
    for name in names:
        values, units, attempted, failed, record = run_workload(
            name, args.seed, args.seconds, args.trace)
        report(name, values, units, attempted, failed, record)
        totals["attempted"] += attempted
        totals["failed"] += failed
        prefix = "" if len(names) == 1 else f"{name}."
        merged.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    print(json.dumps({"correct": totals["failed"] == 0, **totals, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
