import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import clext


def digest(lines) -> str:
    """First 16 hex digits of the SHA-256 of ``lines`` joined by newlines: the
    key of every golden digest in the suite."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def interior_max_abs(mat, margin: int) -> float:
    """Max |entry| of a dense word's interior block, P_m @ mat @ P_m with P_m
    keeping states 0 .. dim - 1 - margin: the dense oracle's reduction."""
    k = mat.shape[0] - margin
    return float(np.abs(mat[:k, :k]).max())


def run_child(script: str, *args: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports this clext, on one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(Path(clext.__file__).parents[1]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def cli_in_guarded_child(argv, limit_mb: int) -> subprocess.CompletedProcess:
    """``clext *argv`` in a child under an address-space limit of ``limit_mb``
    MiB, set before numpy loads, so that an allocation past it raises
    MemoryError instead of exhausting the machine."""
    script = (
        "import resource, sys\n"
        f"limit = {limit_mb} << 20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from clext.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return run_child(script, *argv)
