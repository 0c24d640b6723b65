"""Suite-wide hypothesis profiles: a deterministic tier-1, a separate fuzz.

``deterministic`` (loaded here, so ``make test``, ``make test-reference``
and the bare tier-1 command all use it) derives every example from the
test itself: the same examples on every run and every machine, so a red
tier-1 is a regression and never a fresh draw (nor a slow moment: no
profile sets a per-example deadline).  ``fuzz``
(``make fuzz`` = ``--hypothesis-profile=fuzz``) draws fresh random
examples, more of them where a test does not fix its own count, and
keeps what fails in ``.hypothesis/`` for replay.  A counterexample the
fuzz run finds enters the suite as an ``@example`` line on its test.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.register_profile("fuzz", derandomize=False, max_examples=1000,
                          deadline=None, print_blob=True)
settings.load_profile("deterministic")
