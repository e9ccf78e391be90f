"""Metric names, units and how each is derived from the measured samples.

The names and units here are the ones ``BENCHMARK.json`` declares; the
self-tests check that the two agree.
"""

import statistics
from collections import Counter, defaultdict

from tracer import LAYERS, self_times

END_TO_END = {
    "run_s": "s",
    "run_tail_s": "s",
    "validate_s": "s",
    "cold_run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.load_config_s": "s",
    "cli.validate_config_self_s": "s",
    "cli.run_config_self_s": "s",
    "io.read_json_s": "s",
    "io.matrix_from_json_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "spectral.decompose_s": "s",
    "spectral.decompose_calls": "count",
    "dynamics.rk4_trajectory_s": "s",
    "dynamics.rk4_steps": "count",
    "dynamics.rk4_us_per_step": "us",
    "dynamics.evolve_exact_s": "s",
    "dynamics.conjugate_field_s": "s",
    "lorentzian.sweep_adiabatic_s": "s",
    "lorentzian.sweep_steps": "count",
    "lorentzian.sweep_us_per_step": "us",
    "continuum.initial_lattice_state_self_s": "s",
    "continuum.evolve_lattice_self_s": "s",
    "continuum.post_s": "s",
    "continuum.continuity_residual_calls": "count",
    "canonical.canonical_report_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "import.biham_s": "s",
    "import.numpy_s": "s",
    "import.jsonschema_s": "s",
    "trace.run_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Every scenario in the closed loop is one sample.  A workload mixes
# scenario types of different cost, so each type gets its own average and
# the workload reports the mean of those.
#
# Times are means, not medians.  On a shared host the CPU speed switches
# between faster and slower states that last seconds, and a scenario takes
# about a second, so the samples of one run come from both.  Their median
# jumps towards one state; the mean follows the share of time spent in each.
# On a shared 2-vCPU VM, over eight 50 s runs per workload, the spread
# between runs (quartile distance / median) of the same samples was
# 0.17-0.21 with medians and 0.11-0.17 with means for cold_run_s, 0.10-0.13
# and 0.06-0.09 for setup_s, and 0.10-0.11 and 0.09-0.10 for run_s.
#
# The host's speed also drifts over minutes, by up to a third on that VM
# (run_s of dense-ingest read 1.17-1.70 s over ten consecutive runs), and
# every time in a run moves with it.  So the reported times are the
# measured ones scaled to a host on which the probe kernel (``worker.
# host_probe``, no biham code, run between scenarios) takes PROBE_NOMINAL_S
# on average; the measured ones are printed beside them.  A change to biham
# moves the scaled times as much as the measured ones.  Over five runs per
# workload, scaling cut the spread of run_s from 0.08-0.09 to 0.03.

# the probe's mean time on that VM in the worker, so that scaled times are
# close to measured ones at its usual speed
PROBE_NOMINAL_S = 0.017

SCALED = ("run_s", "run_tail_s", "validate_s", "cold_run_s", "setup_s")


def typed_mean(samples_by_type):
    return statistics.fmean(statistics.fmean(v) for v in samples_by_type.values())


def tail(samples, beyond=10):
    """Highest percentile that has at least ``beyond`` samples above it.

    Returns (value, percentile, sample count); with ``beyond`` samples or
    fewer there is no such percentile and the value is None.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return None, None, n
    rank = n - beyond  # 1-based rank of the sample with `beyond` above it
    return ordered[rank - 1], 100.0 * rank / n, n


def end_to_end(result):
    """(metrics, sample counts, measured times and host speed) of an untraced run."""
    runs = result["run_s"]
    pooled = [t for v in runs.values() for t in v]
    tail_value, percentile, count = tail(pooled)
    measured = {
        "run_s": typed_mean(runs),
        "run_tail_s": tail_value,
        "validate_s": typed_mean(result["validate_s"]),
        "cold_run_s": statistics.fmean(result["cold_run_s"]),
        "setup_s": statistics.fmean(result["setup_s"]),
    }
    speed = PROBE_NOMINAL_S / statistics.fmean(result["probe_s"])
    values = {key: measured[key] * speed for key in SCALED}
    values["peak_rss_mb"] = result["peak_rss_mb"]
    counts = {
        "run_s": count,
        "run_tail_s": {"samples": count, "percentile": percentile},
        "validate_s": sum(len(v) for v in result["validate_s"].values()),
        "cold_run_s": len(result["cold_run_s"]),
        "setup_s": len(result["setup_s"]),
        "peak_rss_mb": 1,
        "probe_s": len(result["probe_s"]),
    }
    return values, counts, {"measured": measured, "host_speed": speed}


def per_layer(spans, counts, scenarios, traced, untraced, imports):
    """Per-layer metrics of a traced run, per traced scenario.

    ``counts`` maps (scenario, counter) to totals recorded at the layer
    boundaries; ``traced`` and ``untraced`` are per-type wall times of the
    same configs with and without the tracer.
    """
    selfs = self_times(spans)
    inclusive, own, calls, layer_self = (defaultdict(float), defaultdict(float),
                                         Counter(), defaultdict(float))
    for sid, (name, start, end, _, _) in enumerate(spans):
        inclusive[name] += end - start
        own[name] += selfs[sid]
        calls[name] += 1
        layer_self[name.split(".")[0]] += selfs[sid]
    counted = defaultdict(float)
    for (_, key), value in counts.items():
        counted[key] += value
    n = float(scenarios)
    steps, sweep_steps = counted["dynamics.rk4_steps"], counted["lorentzian.sweep_steps"]
    values = {
        "cli.load_config_s": inclusive["cli.load_config"] / n,
        "cli.validate_config_self_s": own["cli.validate_config"] / n,
        "cli.run_config_self_s": own["cli.run_config"] / n,
        "io.read_json_s": inclusive["io.read_json"] / n,
        "io.matrix_from_json_s": inclusive["io.matrix_from_json"] / n,
        "io.write_s": (inclusive["io.write_csv"] + inclusive["io.write_json"]) / n,
        "io.bytes_written": counted["io.bytes_written"] / n,
        "spectral.decompose_s": inclusive["spectral.biorthogonal_decompose"] / n,
        "spectral.decompose_calls": calls["spectral.biorthogonal_decompose"] / n,
        "dynamics.rk4_trajectory_s": inclusive["dynamics.rk4_trajectory"] / n,
        "dynamics.rk4_steps": steps / n,
        "dynamics.rk4_us_per_step":
            1e6 * inclusive["dynamics.rk4_trajectory"] / steps if steps else 0.0,
        "dynamics.evolve_exact_s": inclusive["dynamics.evolve_exact"] / n,
        "dynamics.conjugate_field_s": inclusive["dynamics.conjugate_field"] / n,
        "lorentzian.sweep_adiabatic_s": inclusive["lorentzian.sweep_adiabatic"] / n,
        "lorentzian.sweep_steps": sweep_steps / n,
        "lorentzian.sweep_us_per_step":
            1e6 * inclusive["lorentzian.sweep_adiabatic"] / sweep_steps if sweep_steps else 0.0,
        "continuum.initial_lattice_state_self_s": own["continuum.initial_lattice_state"] / n,
        "continuum.evolve_lattice_self_s": own["continuum.evolve_lattice"] / n,
        "continuum.post_s":
            (inclusive["continuum.lattice_charge"] + inclusive["continuum.continuity_residual"]) / n,
        "continuum.continuity_residual_calls": calls["continuum.continuity_residual"] / n,
        "canonical.canonical_report_s": inclusive["canonical.canonical_report"] / n,
        **{f"{layer}.self_s": layer_self[layer] / n for layer in LAYERS},
        "import.biham_s": imports["biham"],
        "import.numpy_s": imports["numpy"],
        "import.jsonschema_s": imports["jsonschema"],
        "trace.run_s": typed_mean(traced),
        "trace.overhead_ratio": typed_mean(traced) / typed_mean(untraced),
    }
    return values


def import_breakdown(stderr_text):
    """Seconds spent importing biham's own modules, numpy and jsonschema.

    Parses ``python -X importtime`` output.  numpy and jsonschema are their
    cumulative times; biham is the sum of its modules' self times, which
    leaves out the third-party imports biham triggers.
    """
    out = {"biham": 0.0, "numpy": 0.0, "jsonschema": 0.0}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the column header
        name = fields[2].strip()
        if name == "biham" or name.startswith("biham."):
            out["biham"] += own * 1e-6
        elif name in ("numpy", "jsonschema") and out[name] == 0.0:
            out[name] = cumulative * 1e-6
    return out
