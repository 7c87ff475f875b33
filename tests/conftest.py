"""Session setup: the report header names the OpenBLAS core numpy runs on.

The bit-identity oracles hold under some OpenBLAS kernels and not under
others (see README, "Tests"), so every run's header says which one it had.
"""

import ctypes

_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename")


def _openblas_core() -> str:
    """The core OpenBLAS picked at load time, as OpenBLAS names it, or
    "unknown" when no mapped OpenBLAS library exports a corename call."""
    import numpy  # noqa: F401  maps numpy's BLAS library into the process

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _CORENAME_SYMBOLS:
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode("ascii", "replace")
    return "unknown"


def pytest_report_header(config):
    return f"openblas core: {_openblas_core()}"
