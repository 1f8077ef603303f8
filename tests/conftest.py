import os

# OpenBLAS reads this once, when numpy loads: one thread, as the benchmark runs,
# since the solver's matrices are too small for a second thread to pay
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

pytest_plugins = ["pytester"]     # test_tooling runs pytest on probe files


@pytest.fixture(scope="session")
def ser_cache_dir(tmp_path_factory):
    """Shared cache so simulated SER curves are built at most once per run."""
    return str(tmp_path_factory.mktemp("ser_cache"))
