import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str digit limit, restored afterwards:
    `cli.run` raises it for the rest of the process."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this interpreter")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)
