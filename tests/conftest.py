import os
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# that fails in CI fails the same way locally; without it the draws are
# random as usual
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def transient_mib():
    """A function that runs a call and returns the peak of the memory it
    allocated above what was allocated at its start (``tracemalloc``), in
    MiB."""
    def measure(call):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - start) / 2 ** 20
        finally:
            tracemalloc.stop()
    return measure
