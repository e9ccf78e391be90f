"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest benchmarks -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from biham import cli  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS + workloads.EXTRA_WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    def dump(seed):
        return [json.dumps(s.config, sort_keys=True)
                for s in workloads.generate(name, seed, ROOT)]

    assert dump(3) == dump(3)
    first, other = dump(3), dump(4)
    assert len(first) >= workloads.POOL
    # only the committed sweep fixture is the same under every seed
    fixtures = sum(s.id == "sweep-fixture" for s in workloads.generate(name, 3, ROOT))
    assert sum(a == b for a, b in zip(first, other)) == fixtures


def _generator(scenario):
    params = scenario.config["params"]
    if "matrix" in params:
        m = params["matrix"]
        return np.asarray(m["re"]) + 1j * np.asarray(m["im"])
    t = scenario.truth
    return workloads.lattice_generator(t["N"], t["L"], t["V"])


@pytest.mark.parametrize("name", ["dense-ingest", "long-horizon", "record-dense"])
def test_generators_have_real_spectra_and_respect_the_step_guard(name):
    for scenario in workloads.generate(name, 5, ROOT):
        if scenario.command == "sweep":
            continue
        h = _generator(scenario)
        e = np.linalg.eigvals(h)
        assert np.max(np.abs(e.imag)) <= 1e-9 * np.max(np.abs(e)), scenario.id
        params = scenario.config["params"]
        if "dt" in params:
            ratio = params["dt"] * np.linalg.norm(h, 2)
            assert ratio <= workloads.STEP_RATIO * (1 + 1e-9) < 0.5, scenario.id


@pytest.mark.parametrize("name", ["long-horizon", "adiabatic-sweep"])
def test_sweep_paths_stay_inside_the_real_regime(name):
    for scenario in workloads.generate(name, 5, ROOT):
        if scenario.command != "sweep":
            continue
        p = scenario.config["params"]["path"]
        s = np.linspace(0.0, 1.0, 10001)
        x, y, z = (p[f"{c}0"] + (p[f"{c}1"] - p[f"{c}0"]) * s for c in "xyz")
        assert np.min(z * z - x * x - y * y) > 0.0, scenario.id
        assert scenario.config["params"]["dt"] * np.max(np.abs(z) + np.hypot(x, y)) <= 0.5


def _layer_attributes():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "biham" or name.startswith("biham.")
            for attr, value in vars(module).items()}


def test_tracer_wraps_every_binding_and_restores_them():
    from biham import canonical, continuum, spectral

    before = _layer_attributes()
    original = spectral.biorthogonal_decompose
    t = tracer.Tracer()
    with t:
        for module in (spectral, continuum, canonical):
            assert module.biorthogonal_decompose is not original
            assert module.biorthogonal_decompose.__wrapped__ is original
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        t.scenario = 0
        continuum.biorthogonal_decompose(h)
    assert _layer_attributes() == before
    names = [span[0] for span in t.spans]
    assert names[0] == "spectral.biorthogonal_decompose"
    assert "spectral.as_square_matrix" in names


def test_self_time_subtracts_child_spans():
    spans = [("cli.main", 0.0, 10.0, -1, 0), ("io.read_json", 1.0, 3.0, 0, 0),
             ("spectral.biorthogonal_decompose", 4.0, 9.0, 0, 0),
             ("spectral.as_square_matrix", 4.0, 4.5, 2, 0)]
    assert tracer.self_times(spans) == [3.0, 2.0, 4.5, 0.5]


def _small_scenarios():
    rng = np.random.default_rng(7)
    return [workloads.decompose_scenario(rng, "decompose", 12),
            workloads.verify_scenario(rng, "verify", 12),
            workloads.evolve_scenario(rng, "evolve", 6, 305, 10),
            workloads.continuum_scenario(rng, "continuum", 32, 200, 1),
            workloads.sweep_scenario(rng, "sweep", T=10.0),
            workloads.sweep_fixture_scenario(ROOT)]


def _run(scenario, tmp_path):
    config = scenario.write(tmp_path)
    out = tmp_path / scenario.id
    assert cli.main([scenario.command, "--config", str(config), "--out", str(out)]) == 0
    return (out / scenario.config["output"]).read_text()


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value * (1.0 + 1e-3) + 1e-5


def _json_variants(text):
    report = json.loads(text)
    for key, value in report.items():
        if isinstance(value, list):
            broken = dict(report, **{key: value[:1] + [_corrupt(value[1])] + value[2:]})
        else:
            broken = dict(report, **{key: _corrupt(value)})
        yield key, json.dumps(broken)


def _csv_variants(text):
    header, rows = oracles.read_csv(text)
    row = rows.shape[0] // 2
    for col, name in enumerate(header):
        broken = rows.copy()
        broken[row, col] = _corrupt(float(broken[row, col]))
        lines = [",".join(header)] + [",".join(repr(float(v)) for v in r) for r in broken]
        yield name, "\n".join(lines) + "\n"


@pytest.mark.parametrize("index", range(6))
def test_oracle_accepts_the_artifact_and_rejects_one_corrupted_value(index, tmp_path):
    scenario = _small_scenarios()[index]
    text = _run(scenario, tmp_path)
    assert oracles.check(scenario, text) == []
    variants = _json_variants if text.lstrip().startswith("{") else _csv_variants
    for field, broken in variants(text):
        assert oracles.check(scenario, broken), f"{scenario.id}: corrupted {field} accepted"


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    commands = {s.command for name in workloads.WORKLOADS
                for s in workloads.generate(name, 1, ROOT)}
    # all five commands run, so every layer is reached by a listed workload
    assert commands == {"decompose", "verify", "evolve", "continuum", "sweep"}


def test_end_to_end_metric_names_match_benchmark_json():
    result = {"run_s": {"a": [1.0 + k for k in range(8)], "b": [2.0] * 8},
              "validate_s": {"a": [0.1, 0.2], "b": [0.3, 0.4]},
              "cold_run_s": [1.0, 2.0, 3.0], "setup_s": [0.2] * 5, "peak_rss_mb": 50.0,
              "probe_s": [metrics.PROBE_NOMINAL_S] * 4}
    values, counts, host = metrics.end_to_end(result)
    assert _declared("end_to_end") == metrics.END_TO_END
    assert set(values) == set(metrics.END_TO_END) == set(counts) - {"probe_s"}
    assert all(isinstance(v, float) and v > 0 for v in values.values())
    assert values["run_s"] == pytest.approx((4.5 + 2.0) / 2)
    assert host["host_speed"] == pytest.approx(1.0)


def test_times_are_scaled_by_the_host_probe_and_memory_is_not():
    result = {"run_s": {"a": [2.0] * 12}, "validate_s": {"a": [0.5]}, "cold_run_s": [3.0],
              "setup_s": [0.2], "peak_rss_mb": 50.0, "probe_s": [2 * metrics.PROBE_NOMINAL_S]}
    values, _, host = metrics.end_to_end(result)
    assert host["measured"]["run_s"] == pytest.approx(2.0)
    assert values["run_s"] == values["run_tail_s"] == pytest.approx(1.0)
    assert (values["validate_s"], values["cold_run_s"], values["setup_s"]) == pytest.approx(
        (0.25, 1.5, 0.1))
    assert values["peak_rss_mb"] == 50.0


def test_per_layer_metric_names_match_benchmark_json():
    spans = [("cli.main", 0.0, 1.0, -1, 0), ("dynamics.rk4_trajectory", 0.1, 0.9, 0, 0)]
    values = metrics.per_layer(spans, {(0, "dynamics.rk4_steps"): 100}, 1,
                               {"evolve": [1.0]}, {"evolve": [0.9]},
                               {"biham": 0.03, "numpy": 0.1, "jsonschema": 0.07})
    assert _declared("per_layer") == metrics.PER_LAYER
    assert set(values) == set(metrics.PER_LAYER)
    assert values["dynamics.rk4_us_per_step"] == pytest.approx(8000.0)
    assert values["cli.self_s"] == pytest.approx(0.2)


def test_tail_keeps_ten_samples_beyond():
    value, percentile, count = metrics.tail([float(k) for k in range(1, 21)])
    assert (value, percentile, count) == (10.0, 50.0, 20)
    assert metrics.tail([1.0] * 10)[0] is None


def test_import_breakdown_parses_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      2000 |      90000 |   numpy",
        "import time:       500 |      70000 |   jsonschema",
        "import time:      1000 |     200000 | biham",
        "import time:       300 |       300 |   biham.cli",
    ])
    out = metrics.import_breakdown(text)
    assert out == pytest.approx({"biham": 0.0013, "numpy": 0.09, "jsonschema": 0.07})


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "long-horizon",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
