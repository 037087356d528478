import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a multiprocessing child running, such as a
    pool worker that its calibration or simulation did not close."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"processes left running: {left}"
