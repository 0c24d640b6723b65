"""Suite-wide hypothesis profiles: a deterministic tier-1, a separate fuzz.

``deterministic`` (loaded here, so ``make test`` and the bare tier-1
command both use it) derives every example from the test itself: the
same examples on every run and every machine, so a red tier-1 is a
regression and never a fresh draw (nor a slow moment: no profile sets
a per-example deadline).  ``fuzz``
(``make fuzz`` = ``--hypothesis-profile=fuzz``) draws fresh random
examples, more of them where a test does not fix its own count, and
keeps what fails in ``.hypothesis/`` for replay.  A counterexample the
fuzz run finds enters the suite as an ``@example`` line on its test.
"""

import pytest
from hypothesis import settings

from _routes import DECODE_ROUTES, decode_route

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.register_profile("fuzz", derandomize=False, max_examples=1000,
                          deadline=None, print_blob=True)
settings.load_profile("deterministic")


@pytest.fixture(params=DECODE_ROUTES)
def route(request):
    """The test once per decode route (see ``tests/_routes.py``)."""
    with decode_route(request.param) as name:
        yield name
