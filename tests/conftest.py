"""Shared test set-up: property tests draw the same examples on every run."""

try:
    from hypothesis import settings
except ImportError:  # hypothesis is a test extra; only its tests need it
    settings = None

if settings is not None:
    # Derandomized and with no example database, each property test draws a
    # fixed example sequence, so runs of two checkouts compare test for test.
    settings.register_profile("orbitkit", derandomize=True, database=None)
    settings.load_profile("orbitkit")
