"""Digest what the CLI writes for every committed and generated config.

    python tools/artifact_digests.py --seeds 0 1 > digests.json
    python tools/artifact_digests.py --seeds 0 1 --src OTHER_TREE/src > other.json
    diff digests.json other.json

Runs ``biham.cli.main`` from ``--src`` (default: this tree's ``src``) on the
five configs in ``tests/fixtures`` and on every config that
``benchmarks/workloads.py`` generates for each seed and workload, one process
per config and route with ``--blas-threads`` BLAS threads (default 1).  The
artifacts' bits depend on that count, so compare outputs made with the same
one.  It prints one JSON object: per
config, the exit code and the SHA-256 of the artifact (``null`` when none is
written), of stdout and of stderr; for a JSON artifact (``decompose`` and
``verify``), under ``fields``, the SHA-256 of each top-level key's JSON value,
so a diff names the field that moved; and under ``validate`` the exit code and
the SHA-256 of stdout and stderr of the same config run with
``--validate-only``.  The configs always come from this tree, so two source
trees that behave the same print the same object.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

RUN_MAIN = "import sys; from biham.cli import main; sys.exit(main(sys.argv[1:]))"

# the commands whose artifact is one JSON object
JSON_COMMANDS = ("decompose", "verify")


def load_workloads():
    path = ROOT / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(src: Path, command: str, config: Path, output: str, blas_threads: int) -> dict:
    """Exit codes and SHA-256s of the run and the ``--validate-only`` run of ``config``.

    Each run writes to a fresh output directory.
    """
    threads = str(blas_threads)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)

    def run(out, *flags):
        return subprocess.run(
            [sys.executable, "-c", RUN_MAIN, command, "--config", str(config), "--out", out,
             *flags], capture_output=True, env=env, check=False)

    with tempfile.TemporaryDirectory() as out:
        proc = run(out)
        artifact = Path(out) / output
        data = artifact.read_bytes() if artifact.exists() else None
        result = {"exit": proc.returncode,
                  "artifact": None if data is None else sha256(data),
                  "stdout": sha256(proc.stdout),
                  "stderr": sha256(proc.stderr)}
        if data is not None and command in JSON_COMMANDS:
            result["fields"] = {key: sha256(json.dumps(value, sort_keys=True).encode())
                                for key, value in json.loads(data).items()}
    with tempfile.TemporaryDirectory() as out:
        proc = run(out, "--validate-only")
        result["validate"] = {"exit": proc.returncode, "stdout": sha256(proc.stdout),
                              "stderr": sha256(proc.stderr)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[0],
                        help="workload seeds to generate configs for (default: 0)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the biham package to run")
    parser.add_argument("--blas-threads", type=int, default=1, choices=range(1, 9),
                        metavar="N", help="BLAS/OpenMP threads of each run, 1 to 8 (default: 1)")
    args = parser.parse_args(argv)
    workloads = load_workloads()
    result = {}
    for path in sorted(FIXTURES.glob("*.json")):
        config = json.loads(path.read_text())
        result[f"fixture/{path.name}"] = digest(
            args.src.resolve(), config["command"], path, config["output"], args.blas_threads)
    with tempfile.TemporaryDirectory() as configs:
        for seed in args.seeds:
            for workload in workloads.WORKLOADS + workloads.EXTRA_WORKLOADS:
                for scenario in workloads.generate(workload, seed, root=ROOT):
                    path = scenario.write(configs)
                    result[f"{workload}/{seed}/{scenario.id}"] = digest(
                        args.src.resolve(), scenario.command, path, scenario.config["output"],
                        args.blas_threads)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
