"""One Hypothesis profile for the whole suite: every property test draws the
same examples on every run, has no deadline and keeps no example database."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
