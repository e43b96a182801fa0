from pathlib import Path

import pytest

from combopt import forking

DATA_DIR = Path(__file__).parent.parent / "data"

needs_fork = pytest.mark.skipif(not forking.fork_available(),
                                reason="jobs run in this process without fork")


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR
