"""Test ids in this directory end in ``[thread]``.

The suffix dates from when the directory ran as a switch-mechanism
matrix; the CI floor list names every test by that id, so the
one-value parameter stays to keep the ids stable.
"""

import pytest


@pytest.fixture(autouse=True, params=["thread"])
def switch_mechanism(request):
    return request.param
