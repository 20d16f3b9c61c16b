"""Shared helpers: random scene synthesis and scipy-based rotation oracles.

The oracle helpers deliberately go through scipy.spatial.transform instead of
gatesim.geometry so rotation math is checked against an independent
implementation (note the wxyz -> xyzw order change at the boundary).
"""

import math
import re

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from gatesim.scene import GaussianScene


def scipy_rotation(q_wxyz):
    """gatesim quaternion (w, x, y, z) as a scipy Rotation."""
    q = np.asarray(q_wxyz, dtype=np.float64)
    return Rotation.from_quat(np.stack(
        [q[..., 1], q[..., 2], q[..., 3], q[..., 0]], axis=-1))


def random_unit_quats(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def random_scene(rng, n, span=5.0):
    """A valid random scene of n gaussians spread over a +-span box."""
    rots = random_unit_quats(rng, n)
    return GaussianScene(
        means=rng.uniform(-span, span, size=(n, 3)),
        rotations=rots,
        scales=rng.uniform(0.01, 0.5, size=(n, 3)),
        colors=rng.uniform(0.0, 1.0, size=(n, 3)),
        opacities=rng.uniform(0.05, 1.0, size=n),
    )


def with_signed_zeros(rng, x, fraction):
    """x with about `fraction` of its entries set to exactly 0.0 or -0.0."""
    hit = rng.random(x.shape) < fraction
    x[hit] = rng.choice([0.0, -0.0], size=x.shape)[hit]
    return x


def step_ulps(x: float, n: int) -> float:
    """x moved n ulps up (n > 0) or down."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


def read_netpbm(blob: bytes) -> np.ndarray:
    """The pixels of a binary PPM (H, W, 3) or PGM (H, W) with the fixed
    header that render.ppm_bytes and pgm_bytes write."""
    head = re.match(rb"(P[56])\n(\d+) (\d+)\n255\n", blob)
    assert head, f"not a P5/P6 header that gatesim writes: {blob[:20]!r}"
    w, h = int(head[2]), int(head[3])
    shape = (h, w, 3) if head[1] == b"P6" else (h, w)
    pixels = blob[head.end():]
    assert len(pixels) == math.prod(shape), f"{len(pixels)} pixel bytes for a {shape} image"
    return np.frombuffer(pixels, dtype=np.uint8).reshape(shape)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
