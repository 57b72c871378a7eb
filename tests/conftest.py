"""Shared test settings.

With the environment variable CI set, the hypothesis property tests run
under the "ci" profile: derandomized, so a failure found there draws the
same examples when the suite is rerun.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
