"""The environment block every result carries, and the BLAS thread pin.

``pin_blas_threads`` must run before numpy is imported: OpenBLAS, MKL and
OpenMP read their thread counts from the environment when they load.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

# One BLAS thread: on a 2-core machine 1 and 2 threads gave the same step
# time within noise, and one thread leaves the other core to the rest of
# the process and to neighbours on a shared host.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on, as the ``nproc`` command counts them."""
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, nproc())
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_openblas():
    """The OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        if path.endswith(".so") or ".so." in path:
            return ctypes.CDLL(path)
    return None


def _openblas_symbol(lib, name):
    # scipy-openblas wheels prefix and suffix every symbol
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            fn = getattr(lib, prefix + name + suffix, None)
            if fn is not None:
                return fn
    return None


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
            "threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None}
    lib = _loaded_openblas()
    if lib is not None:
        get_threads = _openblas_symbol(lib, "openblas_get_num_threads")
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            info["threads"] = int(get_threads())
        get_config = _openblas_symbol(lib, "openblas_get_config")
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            info["config"] = get_config().decode().strip()
    return info


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "platform": f"{sys.platform} {platform.machine()}",
    }


def format_environment(env: dict) -> str:
    b = env["blas"]
    return (f"env: python {env['python']}, numpy {env['numpy']}, "
            f"blas {b['name']} {b['version']} ({b['threads']} threads), "
            f"nproc {env['nproc']}, cpu {env['cpu_model']}")
