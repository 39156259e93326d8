"""Shared test configuration: the ``ci`` hypothesis profile.

``python -m pytest --hypothesis-profile=ci`` draws every property test's
examples from a fixed seed, so a CI failure reproduces on any machine, and
gives a test that sets no ``max_examples`` of its own 500 examples instead
of hypothesis's default 100.  Without the option the default profile
applies.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=500)
