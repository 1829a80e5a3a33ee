import json

import numpy as np
import pytest

from depthsep import build_instance


@pytest.fixture(scope="session")
def spec_d1():
    return build_instance(1, seed=7)


@pytest.fixture(scope="session")
def spec_d2():
    return build_instance(2, seed=9)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def outside_ball_json():
    """A d = 1 instance whose packing keeps every invariant (norms 0.8,
    points 90 degrees apart) but whose farthest cube corner has norm 1.0318."""
    angles = np.deg2rad([45, 135, 225, 315])
    points = 0.8 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return json.dumps({"d": 1, "seed": 0, "points": points.tolist(), "matching": [3, 0, 1, 2]})
