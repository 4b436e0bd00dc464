import pytest

from puremeasure import density_engine
from puremeasure.geometry import Ball

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # `pytest --hypothesis-profile=ci` draws the same examples on every run and
    # prints the blob that replays a failure with @reproduce_failure
    settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)


@pytest.fixture
def reference_weight_calls(monkeypatch) -> list:
    """Sizes of the point blocks passed to each level's reference weight, in call order: one per half-leaf."""
    calls = []
    original = density_engine._reference_weight

    def counting(*args):
        weight = original(*args)

        def counted(pts):
            calls.append(len(pts))
            return weight(pts)

        return counted

    monkeypatch.setattr(density_engine, "_reference_weight", counting)
    return calls


@pytest.fixture
def ball_contains_calls(monkeypatch) -> list:
    """Sizes of the point blocks passed to Ball.contains, in call order: Omega's test where Omega is a ball."""
    calls = []
    original = Ball.contains

    def counting(self, pts):
        calls.append(len(pts))
        return original(self, pts)

    monkeypatch.setattr(Ball, "contains", counting)
    return calls
