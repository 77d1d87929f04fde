"""Hypothesis profiles for the test suite.

The default profile, ``derandomized``, seeds every property from its test
function, so a tier-1 run draws the same examples each time and cannot
fail at random on unchanged code. ``randomized`` restores hypothesis's
random search; ``scripts/check.sh`` reruns the property modules under it
with hypothesis's own option:

    python -m pytest --hypothesis-profile=randomized tests/test_properties.py

The option is applied after this file loads, so it overrides the default.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("derandomized")
