"""Shared test settings.

hypothesis runs under a deterministic profile: derandomized examples, no
deadline and no example database, so every run draws the same examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
