"""The one Hypothesis profile the property suites share.

25 examples per property keep a tier-1 run short; examples that build
quadtrees or coresets are slow and large by Hypothesis's standards, so the
deadline and those two health checks are off.
"""

from hypothesis import HealthCheck, settings

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
