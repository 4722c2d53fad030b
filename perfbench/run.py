"""Run one pdcnn benchmark workload in a fresh process and relay its output.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The workload process (bench.py)
imports pdcnn from ./src and runs with BLAS and OpenMP capped at one thread,
set here before numpy loads; its environment line records the cap. The last
line of stdout is the JSON result. Exits non-zero, printing no result, when
./src/pdcnn is missing or the workload fails or overruns.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = "1"
TIMEOUT_S = 175


def main():
    if not (ROOT / "src" / "pdcnn" / "__init__.py").is_file():
        print(f"perfbench: no pdcnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    cmd = [sys.executable, str(HERE / "bench.py"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
