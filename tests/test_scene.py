"""Scene storage, validation, selection semantics and PLY I/O."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_scene, random_unit_quats, scipy_rotation, with_signed_zeros
from gatesim.geometry import quat_to_mat
from gatesim.scene import (
    GaussianScene,
    SH_DC_COEFF,
    ScenePLYError,
    SceneValidationError,
    load_objects_json,
    load_scene,
    read_scene,
    resolve_selection,
    save_objects_json,
    save_scene,
    write_scene,
)


def test_gaussian_covariance_matches_scipy(rng):
    q = random_unit_quats(rng, 1)[0]
    s = np.array([0.1, 0.4, 0.9])
    scene = GaussianScene(np.zeros(3), q, s, np.ones(3) * 0.5, 0.7)
    r = scipy_rotation(q).as_matrix()
    np.testing.assert_allclose(scene.covariances()[0], r @ np.diag(s**2) @ r.T, atol=1e-12)


def test_scene_covariances_spd(rng):
    scene = random_scene(rng, 50)
    covs = scene.covariances()
    for i in range(len(scene)):
        np.testing.assert_allclose(covs[i], covs[i].T, atol=1e-12)
        assert np.linalg.eigvalsh(covs[i]).min() > 0.0
        r = scipy_rotation(scene.rotations[i]).as_matrix()
        np.testing.assert_allclose(covs[i], r @ np.diag(scene.scales[i] ** 2) @ r.T, atol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 64), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_covariances_have_the_einsum_bits(n, zeros, seed):
    rng = np.random.default_rng(seed)
    q = with_signed_zeros(rng, rng.normal(size=(n, 4)), zeros)
    q[~q.any(axis=1), 0] = 1.0
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    s = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=(n, 3)))
    scene = GaussianScene(np.zeros((n, 3)), q, s, np.zeros((n, 3)), np.ones(n))
    rows = rng.permutation(n)[: rng.integers(1, n + 1)]
    for got, sel in ((scene.covariances(), slice(None)), (scene.covariances(rows), rows)):
        r = quat_to_mat(q[sel])
        want = np.einsum("nij,nj,nkj->nik", r, s[sel] ** 2, r)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_scene_length_mismatch_rejected(rng):
    with pytest.raises(SceneValidationError):
        GaussianScene(np.zeros((3, 3)), np.zeros((2, 4)), np.ones((3, 3)),
                      np.zeros((3, 3)), np.zeros(3))


def test_replace_shares_every_array_it_does_not_replace(rng):
    scene = random_scene(rng, 6)
    scene.add_object("a", [1, 2])
    means = scene.means + 1.0
    out = scene.replace(means=means)
    assert out.means is means
    assert all(mine is theirs for mine, theirs in zip(out.arrays()[1:], scene.arrays()[1:]))
    assert out.objects == scene.objects and out.objects["a"] is scene.objects["a"]
    out.objects["b"] = np.array([0])
    assert "b" not in scene.objects
    with pytest.raises(TypeError, match="no per-splat array named mean"):
        scene.replace(mean=means)


def test_take_and_append_move_whole_rows(rng):
    scene = random_scene(rng, 8)
    scene.add_object("a", [0, 5])
    rows = [6, 2, 2]
    keep = np.arange(8) % 3 == 0
    for pick, want in ((rows, rows), (keep, [0, 3, 6])):
        taken = scene.take(pick)
        assert taken.objects == {}
        for got, whole in zip(taken.arrays(), scene.arrays()):
            np.testing.assert_array_equal(got, whole[want])
    other = random_scene(rng, 3)
    other.add_object("dropped", [0])
    both = scene.append(other, "b")
    for got, mine, theirs in zip(both.arrays(), scene.arrays(), other.arrays()):
        np.testing.assert_array_equal(got, np.concatenate([mine, theirs]))
    assert sorted(both.objects) == ["a", "b"]
    np.testing.assert_array_equal(both.objects["a"], [0, 5])
    np.testing.assert_array_equal(both.objects["b"], [8, 9, 10])
    assert both.objects["b"].dtype == np.int64
    assert sorted(scene.objects) == ["a"]


@pytest.mark.parametrize("field,value,message", [
    ("means", np.nan, "non-finite"),
    ("rotations", 2.0, "non-unit"),
    ("scales", -1.0, "non-positive"),
    ("colors", 1.5, "color out of"),
    ("opacities", -0.1, "opacity out of"),
])
def test_validate_flags_each_violation(rng, field, value, message):
    scene = random_scene(rng, 5)
    arr = getattr(scene, field)
    if arr.ndim == 2:
        arr[3, 0] = value
    else:
        arr[3] = value
    with pytest.raises(SceneValidationError, match=message):
        scene.validate()


def test_validate_object_indices(rng):
    scene = random_scene(rng, 4)
    scene.objects["bad"] = np.array([2, 9])
    with pytest.raises(SceneValidationError, match="out-of-range"):
        scene.validate()
    with pytest.raises(SceneValidationError):
        scene.add_object("worse", [-1])


def test_resolve_selection_by_object(rng):
    scene = random_scene(rng, 10)
    scene.add_object("thing", [7, 2, 5])
    np.testing.assert_array_equal(resolve_selection(scene, "thing"), [2, 5, 7])
    with pytest.raises(KeyError):
        resolve_selection(scene, "missing")


def test_resolve_selection_box_is_closed():
    scene = GaussianScene(
        means=np.array([[0.0, 0, 0], [1, 1, 1], [2, 2, 2]]),
        rotations=np.tile([1.0, 0, 0, 0], (3, 1)),
        scales=np.ones((3, 3)),
        colors=np.zeros((3, 3)),
        opacities=np.ones(3),
    )
    # the mean at (1,1,1) sits exactly on the box face and must be included
    idx = resolve_selection(scene, ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    np.testing.assert_array_equal(idx, [0, 1])
    assert len(resolve_selection(scene, ((5.0, 5, 5), (6.0, 6, 6)))) == 0
    everything = resolve_selection(scene, ((-9.0, -9, -9), (9.0, 9, 9)))
    np.testing.assert_array_equal(everything, [0, 1, 2])


def test_selection_coercions(rng):
    # an object id is a str; a box is a (min, max) pair of any sequences
    scene = random_scene(rng, 30, span=1.0)
    scene.add_object("obj", [4, 1])
    np.testing.assert_array_equal(resolve_selection(scene, "obj"), [1, 4])
    for box in (([0, 0, 0], [1, 1, 1]), [np.zeros(3), (1.0, 1.0, 1.0)]):
        inside = np.all((scene.means >= 0.0) & (scene.means <= 1.0), axis=1)
        np.testing.assert_array_equal(resolve_selection(scene, box), np.flatnonzero(inside))
    with pytest.raises(ValueError, match="box min must be <= box max"):
        resolve_selection(scene, ([1, 0, 0], [0, 1, 1]))
    for bad in (42, None, ([0, 0, 0],), ([0, 0, 0], [1, 1, 1], [2, 2, 2])):
        with pytest.raises(TypeError, match="cannot interpret"):
            resolve_selection(scene, bad)


def test_ply_binary_round_trip_bytes(rng):
    scene = random_scene(rng, 200)
    blob = save_scene(scene)
    again = save_scene(load_scene(blob))
    assert blob == again


_PROPS = "x y z scale_0 scale_1 scale_2 rot_0 rot_1 rot_2 rot_3 opacity red green blue".split()
# hand-written native rows: signed zeros, an inexact decimal, the smallest
# subnormal and the largest double, each of which must come back bit for bit
_ASCII_ROWS = [
    "-0.0 0.1 1.7976931348623157e308  5e-324 0.1 1.7976931348623157e308  "
    "1 -0.0 0 0  0.1  -0.0 0.1 1",
    "5e-324 -1.7976931348623157e308 -0.0  1 2.5 0.1  0.6 0.8 -0.0 0.0  5e-324  1 0.1 5e-324",
]


def _ascii_ply(props, rows) -> bytes:
    header = ["ply", "format ascii 1.0", "comment hand-written", f"element vertex {len(rows)}"]
    header += [f"property double {p}" for p in props] + ["end_header"]
    return ("\n".join(header + rows) + "\n").encode("ascii")


def test_ply_ascii_round_trip_exact():
    scene = load_scene(_ascii_ply(_PROPS, _ASCII_ROWS))
    table = np.array([[float(v) for v in row.split()] for row in _ASCII_ROWS])
    want = {"means": table[:, 0:3], "scales": table[:, 3:6], "rotations": table[:, 6:10],
            "opacities": table[:, 10], "colors": table[:, 11:14]}
    back = load_scene(save_scene(scene))   # and the binary writer keeps them
    for name, values in want.items():
        assert getattr(scene, name).tobytes() == values.tobytes(), name
        assert getattr(back, name).tobytes() == values.tobytes(), name


def test_ply_empty_scene_round_trip():
    blob = save_scene(GaussianScene.empty())
    assert b"element vertex 0" in blob
    assert len(load_scene(blob)) == 0


def test_ply_single_gaussian_native_values():
    scene = GaussianScene(
        means=[[0.0, 0.0, 0.0]],
        rotations=[[1.0, 0.0, 0.0, 0.0]],
        scales=[[1.0, 1.0, 1.0]],
        colors=[[0.25, 0.5, 0.75]],
        opacities=[0.9],
    )
    back = load_scene(save_scene(scene))
    assert len(back) == 1
    np.testing.assert_array_equal(back.means[0], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(back.rotations[0], [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(back.scales[0], [1.0, 1.0, 1.0])


def _training_export_ply(rows):
    """Emit a 3DGS-style training export (float32, log/logit/SH-DC fields)."""
    props = ["x", "y", "z", "scale_0", "scale_1", "scale_2",
             "rot_0", "rot_1", "rot_2", "rot_3", "opacity",
             "f_dc_0", "f_dc_1", "f_dc_2"]
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {len(rows)}"]
    header += [f"property float {p}" for p in props]
    header.append("end_header")
    body = np.asarray(rows, dtype="<f4").tobytes()
    return ("\n".join(header) + "\n").encode() + body


def test_training_export_layout_conversion():
    # log-scale 0 -> scale 1; logit 0 -> opacity 0.5; f_dc 0 -> gray
    rows = [[0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0.0, 0, 0, 0],
            [1, 2, 3, np.log(0.2), 0, 0, 1, 0, 0, 0, 4.0, 1.0, -1.0, 0.5]]
    scene = load_scene(_training_export_ply(rows))
    np.testing.assert_allclose(scene.scales[0], [1.0, 1.0, 1.0], atol=1e-6)
    assert abs(scene.opacities[0] - 0.5) < 1e-7
    np.testing.assert_allclose(scene.colors[0], [0.5, 0.5, 0.5], atol=1e-7)
    # rot (2,0,0,0) normalizes to identity
    np.testing.assert_allclose(scene.rotations[0], [1, 0, 0, 0], atol=1e-7)
    np.testing.assert_allclose(scene.scales[1, 0], 0.2, atol=1e-7)
    assert abs(scene.opacities[1] - 1.0 / (1.0 + np.exp(-4.0))) < 1e-7
    expect = np.clip(0.5 + SH_DC_COEFF * np.array([1.0, -1.0, 0.5]), 0, 1)
    np.testing.assert_allclose(scene.colors[1], expect.astype(np.float32), atol=1e-7)


def test_sh_dc_coefficient_value():
    # zeroth spherical harmonic Y00 = 1 / (2 sqrt(pi))
    assert abs(SH_DC_COEFF - 1.0 / (2.0 * np.sqrt(np.pi))) < 1e-15


@pytest.mark.parametrize("blob,message", [
    (b"not a ply at all", "missing 'ply' magic"),
    (b"ply\nformat bigendian 1.0\nelement vertex 0\nend_header\n", "unsupported PLY format"),
    (b"ply\nformat ascii 1.0\nend_header\n", "missing 'element vertex'"),
    (b"ply\nelement vertex 0\nend_header\n", "missing 'format'"),
    (b"ply\nformat ascii 1.0\nelement vertex 1\nproperty list uchar int idx\nend_header\n0\n",
     "unsupported list property"),
    (b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float x\n"
     b"end_header\n0 0\n", "duplicate property"),
    (b"ply\nformat ascii 1.0\nelement face 3\nelement vertex 0\nend_header\n",
     "non-empty element"),
    # a count is a whole number: a negative one would drop rows from the end
    (_ascii_ply(_PROPS, _ASCII_ROWS).replace(b"element vertex 2", b"element vertex -1"),
     r"^element count is not an integer >= 0: 'element vertex -1'$"),
    (b"ply\nformat binary_little_endian 1.0\nelement vertex 1.5\nproperty float x\n"
     b"end_header\n\x00\x00\x00\x00", r"^element count is not an integer >= 0: 'element vertex 1.5'$"),
])
def test_ply_malformed_headers(blob, message):
    with pytest.raises(ScenePLYError, match=message):
        load_scene(blob)


def test_ply_truncated_payload(rng):
    blob = save_scene(random_scene(rng, 10))
    with pytest.raises(ScenePLYError, match="payload bytes"):
        load_scene(blob[:-8])


def test_ply_missing_color_property():
    # the native rows with their color columns stripped
    rows = [" ".join(row.split()[:11]) for row in _ASCII_ROWS]
    with pytest.raises(ScenePLYError, match="missing property 'red'"):
        load_scene(_ascii_ply(_PROPS[:11], rows))


def test_ply_rejects_nan_field(rng):
    scene = random_scene(rng, 3)
    scene.opacities[1] = np.nan
    with pytest.raises(SceneValidationError, match="gaussian 1"):
        load_scene(save_scene(scene))


def test_objects_sidecar_round_trip(rng, tmp_path):
    scene = random_scene(rng, 12)
    scene.add_object("a", [0, 1, 2])
    scene.add_object("b", [2, 5])
    path = tmp_path / "scene.ply"
    write_scene(path, scene)
    assert (tmp_path / "scene.objects.json").exists()
    back = read_scene(path)
    assert sorted(back.objects) == ["a", "b"]
    np.testing.assert_array_equal(back.objects["a"], [0, 1, 2])
    np.testing.assert_array_equal(back.objects["b"], [2, 5])


def test_objects_json_text_round_trip(rng):
    scene = random_scene(rng, 6)
    scene.add_object("x", [3, 1])
    text = save_objects_json(scene)
    other = random_scene(rng, 6)
    load_objects_json(other, text)
    np.testing.assert_array_equal(other.objects["x"], [1, 3])


def _signed_zero_scene(n, seed, zeros, objects):
    """A valid random scene of n gaussians with about a `zeros` fraction of
    its means, colors, opacities and quaternion entries set to 0.0 or -0.0,
    and the object index sets as given (kept in range, order and repeats
    untouched)."""
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, n)
    q = with_signed_zeros(rng, scene.rotations, zeros)
    q[~q.any(axis=1), 0] = 1.0   # an all-zero row is no rotation
    return GaussianScene(
        with_signed_zeros(rng, scene.means, zeros),
        q / np.linalg.norm(q, axis=1, keepdims=True),
        scene.scales,
        with_signed_zeros(rng, scene.colors, zeros),
        with_signed_zeros(rng, scene.opacities, zeros),
        {name: [i for i in idx if i < n] for name, idx in objects.items()},
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 20), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 1.0]),
       st.dictionaries(st.text("abz_-", min_size=1, max_size=5),
                       st.lists(st.integers(0, 19), max_size=12), max_size=3))
@example(0, 0, 0.3, {"a": [1, 2]})                               # no gaussians, an emptied set
@example(12, 1, 1.0, {"a": [0, 3, 3, 7], "b": [7, 3, 11], "z_": [19, 2]})   # every entry zero
def test_ply_and_objects_json_round_trip_as_bytes(n, seed, zeros, objects):
    """write_scene, read_scene, write_scene.

    The contract: every float comes back bit for bit, signed zeros included,
    and the second PLY equals the first as bytes. Object
    index sets come back through np.unique: sorted and without repeats
    however they were given, as int64. So the second .objects.json is the
    first with each set normalized, and a further round trip changes nothing.
    """
    scene = _signed_zero_scene(n, seed, zeros, objects)
    normalized = {name: np.unique(np.asarray(idx, dtype=np.int64)).tolist()
                  for name, idx in scene.objects.items()}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"{k}.ply") for k in "abc"]
        sidecars = [p.with_suffix(".objects.json") for p in paths]
        write_scene(paths[0], scene)
        back = read_scene(paths[0])
        write_scene(paths[1], back)
        write_scene(paths[2], read_scene(paths[1]))

        assert paths[1].read_bytes() == paths[0].read_bytes()
        for name in ("means", "rotations", "scales", "colors", "opacities"):
            assert getattr(back, name).tobytes() == getattr(scene, name).tobytes(), name

        assert {k: (v.dtype, v.tolist()) for k, v in back.objects.items()} == \
            {k: (np.dtype(np.int64), v) for k, v in normalized.items()}
        if objects:
            assert sidecars[1].read_text() == json.dumps(normalized, indent=2,
                                                         sort_keys=True) + "\n"
            assert sidecars[2].read_bytes() == sidecars[1].read_bytes()
            if all(v.tolist() == normalized[k] for k, v in scene.objects.items()):
                assert sidecars[1].read_bytes() == sidecars[0].read_bytes()
        else:
            assert not any(p.exists() for p in sidecars)

