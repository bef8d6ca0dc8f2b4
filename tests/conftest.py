"""Hypothesis settings shared by every property test: reproducible draws,
no time limit per example and no example database on disk.  A test's own
``@settings`` sets only its example count."""

from hypothesis import settings

settings.register_profile("chibound", deadline=None, derandomize=True, database=None)
settings.load_profile("chibound")
