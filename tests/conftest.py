"""Hypothesis profiles for the test suite.

``ci`` keeps every test's example count and prints a reproduction blob
with each failure, so a randomized sweep that fails on a CI runner can be
replayed locally with ``@reproduce_failure``; it also drops deadlines,
since shared runners time unevenly.  Select it with
``pytest --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
