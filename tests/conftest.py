import pytest

from puremeasure.geometry import PointFeature


@pytest.fixture
def distance_calls(monkeypatch) -> list:
    """Sizes of the point blocks passed to PointFeature.distance, in call order."""
    calls = []
    original = PointFeature.distance

    def counting(self, pts):
        calls.append(len(pts))
        return original(self, pts)

    monkeypatch.setattr(PointFeature, "distance", counting)
    return calls
