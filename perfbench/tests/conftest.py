import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


@pytest.fixture(params=["karate", "bombing_proxy"])
def small_graph(request):
    from repro.workloads import load

    return load(request.param)
