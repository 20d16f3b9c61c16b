"""Edit operations: algebra, selection hygiene, array sharing, scripts."""

import json
import re
from importlib import resources

import numpy as np
import pytest

from conftest import random_scene, random_unit_quats, scipy_rotation
from gatesim.edits import (
    EmptySelectionWarning,
    add,
    apply_edit_script,
    delete,
    duplicate,
    fresh_object_id,
    lighting,
    rotate,
    scale,
    translate,
)
from gatesim.geometry import RigidTransform, quat_from_axis_angle
from gatesim.scene import GaussianScene, resolve_selection
from gatesim.tracks import reference_track, track_splats


def _tagged(rng, n=20, k=7):
    scene = random_scene(rng, n)
    scene.add_object("sel", rng.choice(n, size=k, replace=False))
    return scene


def test_translate_moves_only_selection(rng):
    scene = _tagged(rng)
    idx = resolve_selection(scene, "sel")
    out = translate(scene, "sel", (0.5, -1.0, 2.0))
    np.testing.assert_array_equal(out.means[idx], scene.means[idx] + [0.5, -1.0, 2.0])
    rest = np.setdiff1d(np.arange(len(scene)), idx)
    np.testing.assert_array_equal(out.means[rest], scene.means[rest])
    # untouched fields are shared, not copied
    assert out.rotations is scene.rotations
    assert out.scales is scene.scales
    assert out.colors is scene.colors
    assert out.opacities is scene.opacities
    # input scene itself is never mutated
    assert out.means is not scene.means


def test_translate_zero_is_identity(rng):
    scene = _tagged(rng)
    out = translate(scene, "sel", (0.0, 0.0, 0.0))
    np.testing.assert_array_equal(out.means, scene.means)


def test_translate_single_example():
    scene = GaussianScene([[1.0, 2, 3]], [[1.0, 0, 0, 0]], [[1.0, 1, 1]],
                          [[0.0, 0, 0]], [1.0], objects={"g": [0]})
    out = translate(scene, "g", (0, 0, 1))
    np.testing.assert_array_equal(out.means[0], [1.0, 2.0, 4.0])


def test_rotate_covariance_oracle(rng):
    # reconstructed covariance of rotated gaussians must equal Q Sigma Q^T
    scene = _tagged(rng)
    idx = resolve_selection(scene, "sel")
    q = random_unit_quats(rng, 1)[0]
    out = rotate(scene, "sel", q, pivot=(0.0, 0.0, 0.0))
    Q = scipy_rotation(q).as_matrix()
    before = scene.covariances()
    after = out.covariances()
    for i in idx:
        np.testing.assert_allclose(after[i], Q @ before[i] @ Q.T, atol=1e-10)
    rest = np.setdiff1d(np.arange(len(scene)), idx)
    np.testing.assert_array_equal(after[rest], before[rest])


def test_rotate_about_default_centroid(rng):
    scene = _tagged(rng)
    idx = resolve_selection(scene, "sel")
    pivot = scene.means[idx].mean(axis=0)
    q = quat_from_axis_angle([0, 0, 1], 0.9)
    out = rotate(scene, "sel", q)
    R = scipy_rotation(q).as_matrix()
    np.testing.assert_allclose(out.means[idx], pivot + (scene.means[idx] - pivot) @ R.T,
                               atol=1e-10)
    # centroid itself is a fixed point
    np.testing.assert_allclose(out.means[idx].mean(axis=0), pivot, atol=1e-10)


def test_rotate_symmetric_pair_swaps():
    means = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    scene = GaussianScene(means, np.tile([1.0, 0, 0, 0], (2, 1)), np.ones((2, 3)),
                          np.zeros((2, 3)), np.ones(2), objects={"both": [0, 1]})
    out = rotate(scene, "both", quat_from_axis_angle([0, 0, 1], np.pi))
    np.testing.assert_allclose(out.means[0], [-1.0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(out.means[1], [1.0, 0, 0], atol=1e-12)


def test_scale_uniform(rng):
    scene = _tagged(rng)
    idx = resolve_selection(scene, "sel")
    pivot = scene.means[idx].mean(axis=0)
    out = scale(scene, "sel", 2.0)
    np.testing.assert_allclose(out.means[idx], pivot + 2.0 * (scene.means[idx] - pivot),
                               atol=1e-12)
    np.testing.assert_allclose(out.scales[idx], 2.0 * scene.scales[idx], atol=1e-12)
    assert out.colors is scene.colors
    assert out.opacities is scene.opacities


def test_scale_spacing_example():
    means = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    scene = GaussianScene(means, np.tile([1.0, 0, 0, 0], (2, 1)),
                          np.full((2, 3), 0.1), np.zeros((2, 3)), np.ones(2),
                          objects={"pair": [0, 1]})
    out = scale(scene, "pair", 2.0)
    assert abs(np.linalg.norm(out.means[1] - out.means[0]) - 2.0) < 1e-12
    np.testing.assert_allclose(out.scales, 0.2, atol=1e-12)


def test_scale_anisotropic(rng):
    scene = _tagged(rng)
    idx = resolve_selection(scene, "sel")
    k = np.array([2.0, 1.0, 0.5])
    out = scale(scene, "sel", k, pivot=(0, 0, 0))
    np.testing.assert_allclose(out.means[idx], k * scene.means[idx], atol=1e-12)
    np.testing.assert_allclose(out.scales[idx], scene.scales[idx] * k, atol=1e-12)


def test_scale_rejects_bad_factor(rng):
    scene = _tagged(rng)
    with pytest.raises(ValueError):
        scale(scene, "sel", 0.0)
    with pytest.raises(ValueError):
        scale(scene, "sel", (1.0, -2.0, 1.0))
    with pytest.raises(ValueError):
        scale(scene, "sel", (1.0, 2.0))


def test_duplicate_cardinality_and_aliasing(rng):
    scene = _tagged(rng, n=5, k=1)
    out, new_id = duplicate(scene, "sel")
    assert len(out) == 6
    assert new_id == "sel_copy"
    src = resolve_selection(scene, "sel")
    np.testing.assert_array_equal(out.means[5], scene.means[src[0]])
    # translating the clone must not touch the original
    moved = translate(out, new_id, (1.0, 0, 0))
    np.testing.assert_array_equal(moved.means[src], scene.means[src])


def test_duplicate_twice_and_offset(rng):
    scene = _tagged(rng, n=4, k=2)
    out, id1 = duplicate(scene, "sel", offset=(0, 0, 1))
    out, id2 = duplicate(out, "sel", offset=(0, 0, 2))
    assert len(out) == 8
    assert id1 != id2
    idx = resolve_selection(scene, "sel")
    np.testing.assert_array_equal(out.means[resolve_selection(out, id1)],
                                  scene.means[idx] + [0, 0, 1])
    np.testing.assert_array_equal(out.means[resolve_selection(out, id2)],
                                  scene.means[idx] + [0, 0, 2])


def test_duplicate_empty_selection_raises(rng):
    scene = random_scene(rng, 3)
    with pytest.raises(ValueError):
        duplicate(scene, ((9.0, 9, 9), (10.0, 10, 10)))


def test_delete_reindexes_objects(rng):
    scene = random_scene(rng, 10)
    scene.add_object("a", [0, 1, 2])
    scene.add_object("b", [2, 5, 9])
    out = delete(scene, "a")
    assert len(out) == 7
    # b keeps exactly its surviving members, re-indexed
    np.testing.assert_array_equal(out.means[out.objects["b"]], scene.means[[5, 9]])
    # a survives as an empty set so the id stays addressable
    assert len(out.objects["a"]) == 0


def test_delete_all(rng):
    scene = random_scene(rng, 6)
    scene.add_object("all", np.arange(6))
    assert len(delete(scene, "all")) == 0


def test_lighting_multiply_clamps(rng):
    scene = _tagged(rng)
    idx = resolve_selection(scene, "sel")
    scene.colors[idx] = 0.6
    out = lighting(scene, "sel", "multiply", (2.0, 2.0, 2.0))
    np.testing.assert_array_equal(out.colors[idx], np.ones((len(idx), 3)))
    assert out.means is scene.means
    ident = lighting(scene, "sel", "multiply", (1.0, 1.0, 1.0))
    np.testing.assert_array_equal(ident.colors, scene.colors)


def test_lighting_replace_and_validation(rng):
    scene = _tagged(rng)
    idx = resolve_selection(scene, "sel")
    out = lighting(scene, "sel", "replace", (0.0, 0.0, 0.0))
    np.testing.assert_array_equal(out.colors[idx], np.zeros((len(idx), 3)))
    with pytest.raises(ValueError):
        lighting(scene, "sel", "replace", (1.2, 0.0, 0.0))
    with pytest.raises(ValueError):
        lighting(scene, "sel", "multiply", (-0.5, 1.0, 1.0))
    with pytest.raises(ValueError):
        lighting(scene, "sel", "screen", (1.0, 1.0, 1.0))


def test_add_composition_oracle(rng):
    # add with pose P, then rotate the new object by P's inverse rotation
    # about its centroid and translate back: means must match the originals
    scene = random_scene(rng, 6)
    donor = random_scene(rng, 8)
    q = random_unit_quats(rng, 1)[0]
    pose = RigidTransform(q, np.array([1.0, -0.5, 2.0]))
    out, new_id = add(scene, donor, pose=pose, object_id="gate")
    assert len(out) == 14
    idx = resolve_selection(out, new_id)
    np.testing.assert_allclose(out.means[idx], pose.apply(donor.means), atol=1e-12)

    centroid_posed = out.means[idx].mean(axis=0)
    centroid_src = donor.means.mean(axis=0)
    undone = rotate(out, new_id, q * [1.0, -1.0, -1.0, -1.0])
    undone = translate(undone, new_id, centroid_src - centroid_posed)
    np.testing.assert_allclose(undone.means[idx], donor.means, atol=1e-9)
    # host gaussians never moved
    np.testing.assert_array_equal(undone.means[:6], scene.means)


def test_add_identity_pose_verbatim(rng):
    scene = random_scene(rng, 3)
    donor = random_scene(rng, 4)
    donor.add_object("part", [1, 3])
    out, new_id = add(scene, donor, "part")
    assert new_id == "part"
    assert len(out) == 5
    np.testing.assert_array_equal(out.means[3:], donor.means[[1, 3]])
    np.testing.assert_array_equal(out.rotations[3:], donor.rotations[[1, 3]])


def test_add_id_collision_suffix(rng):
    scene = random_scene(rng, 2)
    scene.add_object("part", [0])
    donor = random_scene(rng, 2)
    out, new_id = add(scene, donor, object_id="part")
    assert new_id == "part_2"
    assert fresh_object_id(out, "part") == "part_3"


def test_add_empty_foreign_selection_raises(rng):
    scene = random_scene(rng, 2)
    donor = random_scene(rng, 2)
    donor.add_object("none", [])
    with pytest.raises(ValueError):
        add(scene, donor, "none")


@pytest.mark.parametrize("op", [
    lambda s: translate(s, "ghost", (1, 0, 0)),
    lambda s: rotate(s, "ghost", [1.0, 0, 0, 0]),
    lambda s: scale(s, "ghost", 2.0),
    lambda s: delete(s, "ghost"),
    lambda s: lighting(s, "ghost", "replace", (1, 1, 1)),
])
def test_empty_selection_warns_and_noops(rng, op):
    scene = random_scene(rng, 4)
    scene.add_object("ghost", [])
    with pytest.warns(EmptySelectionWarning):
        out = op(scene)
    assert out is scene


def test_inverse_pairs_restore(rng):
    scene = _tagged(rng, n=30, k=11)
    q = random_unit_quats(rng, 1)[0]
    d = rng.uniform(-2, 2, size=3)

    out = translate(translate(scene, "sel", d), "sel", -d)
    np.testing.assert_allclose(out.means, scene.means, atol=1e-9)

    out = rotate(rotate(scene, "sel", q), "sel", q * [1.0, -1.0, -1.0, -1.0])
    np.testing.assert_allclose(out.means, scene.means, atol=1e-9)
    np.testing.assert_allclose(out.covariances(), scene.covariances(), atol=1e-9)

    out = scale(scale(scene, "sel", 3.0), "sel", 1.0 / 3.0)
    np.testing.assert_allclose(out.means, scene.means, atol=1e-9)
    np.testing.assert_allclose(out.scales, scene.scales, atol=1e-9)

    out, new_id = duplicate(scene, "sel")
    out = delete(out, new_id)
    assert len(out) == len(scene)
    np.testing.assert_array_equal(out.means, scene.means)


def test_apply_edit_script_all_ops(rng, tmp_path):
    scene = random_scene(rng, 10)
    scene.add_object("a", [0, 1, 2])
    donor = random_scene(rng, 3)
    from gatesim.scene import write_scene, read_scene
    write_scene(tmp_path / "donor.ply", donor)

    script = [
        {"op": "translate", "selection": "a", "delta": [1.0, 0.0, 0.0]},
        {"op": "rotate", "selection": "a", "axis": [0, 0, 1], "angle": 0.5},
        {"op": "scale", "selection": "a", "factor": 2.0},
        {"op": "duplicate", "selection": "a", "offset": [0, 0, 1], "object_id": "a2"},
        {"op": "lighting", "selection": "a2", "mode": "replace", "rgb": [1, 0, 0]},
        {"op": "add", "scene": "donor.ply", "translation": [5.0, 0.0, 0.0],
         "yaw": 0.3, "object_id": "extra"},
        {"op": "delete", "selection": "extra"},
    ]
    out = apply_edit_script(scene, script,
                            donor_loader=lambda rel: read_scene(tmp_path / rel))
    assert len(out) == 10 + 3 + 3 - 3
    assert "a2" in out.objects and len(out.objects["extra"]) == 0
    np.testing.assert_array_equal(out.colors[out.objects["a2"]],
                                  np.tile([1.0, 0, 0], (3, 1)))


def test_apply_edit_script_quaternion_and_box(rng):
    scene = random_scene(rng, 5)
    lo, hi = scene.means.min(0) - 1, scene.means.max(0) + 1
    script = [{"op": "rotate", "selection": {"box": [lo.tolist(), hi.tolist()]},
               "quaternion": [1.0, 0.0, 0.0, 0.0]}]
    out = apply_edit_script(scene, script)
    np.testing.assert_allclose(out.means, scene.means, atol=1e-12)


def test_apply_edit_script_errors(rng):
    scene = random_scene(rng, 2)
    with pytest.raises(ValueError, match="unknown edit op"):
        apply_edit_script(scene, [{"op": "explode", "selection": "x"}])
    with pytest.raises(ValueError, match="donor loader"):
        apply_edit_script(scene, [{"op": "add", "scene": "missing.ply"}])


_BOX = {"box": [[-9.0, -9.0, -9.0], [9.0, 9.0, 9.0]]}


@pytest.mark.parametrize("record, message", [
    ({"op": "explode", "selection": "a"}, "unknown edit op: 'explode'"),
    ({"selection": "a"}, "unknown edit op: None"),
    (["translate", "a"], "expected a JSON object"),
    ({"op": "translate", "delta": [1, 0, 0]}, "translate needs 'selection'"),
    ({"op": "scale", "selection": "a"}, "scale needs 'factor'"),
    ({"op": "lighting", "selection": "a", "rgb": [1, 1, 1]}, "lighting needs 'mode'"),
    ({"op": "add"}, "add needs 'scene'"),
    # rotate takes a quaternion or an axis and an angle, and names what its
    # nearest form lacks
    ({"op": "rotate", "selection": "a"}, "rotate needs 'quaternion'"),
    ({"op": "rotate", "selection": "a", "axis": [0, 0, 1]}, "rotate needs 'angle'"),
    ({"op": "rotate", "selection": "a", "quaternion": [1, 0, 0, 0], "axis": [0, 0, 1],
      "angle": 0.1}, "rotate does not read 'quaternion'; it reads selection, axis, angle"),
    ({"op": "translate", "selection": "a", "delta": [1, 0, 0], "pivto": 3},
     "translate does not read 'pivto'; it reads selection, delta"),
    ({"op": "delete", "selection": "a", "pivot": [0, 0, 0]}, "delete does not read 'pivot'"),
    ({"op": "delete", "selection": None}, "selection must be an object id or"),
    ({"op": "delete", "selection": 3}, "selection must be an object id or"),
    ({"op": "delete", "selection": {"box": [[0, 0, 0]]}}, "selection must be an object id"),
    ({"op": "delete", "selection": {"box": [[0, 0, 0], [1, 1]]}}, "selection must be an object"),
    ({"op": "delete", "selection": {**_BOX, "pad": 1}}, "selection must be an object id or"),
    ({"op": "add", "scene": "donor.ply", "selection": [0, 1]}, "selection must be an object"),
    # number fields of the wrong shape, and a failure inside a well-formed edit
    ({"op": "rotate", "selection": "a", "quaternion": [1, 0, 0]},
     "quaternion must be 4 numbers, got [1, 0, 0]"),
    ({"op": "rotate", "selection": "a", "axis": [0, 0, 1], "angle": [0.1]},
     "angle must be one number, got [0.1]"),
    ({"op": "delete", "selection": "b"}, "unknown object id: 'b'"),
    ({"op": "scale", "selection": "a", "factor": -1.0}, "scale factors must be > 0, got -1.0"),
    ({"op": "scale", "selection": "a", "factor": "big"},
     "factor must be one number or 3 numbers, got big"),
    ({"op": "duplicate", "selection": "a", "offset": [1, "b", 0]},
     "offset must be 3 numbers, got [1, 'b', 0]"),
])
def test_apply_edit_script_refuses_a_malformed_record(rng, record, message):
    # a well-formed record (a box selection) passes; the next is refused by its index
    scene = random_scene(rng, 4)
    scene.add_object("a", [0, 1])
    script = [{"op": "delete", "selection": _BOX}, record]
    with pytest.raises(ValueError, match=re.escape(f"edit record 1: {message}")):
        apply_edit_script(scene, script, donor_loader=lambda path: scene)


def test_the_bundled_edit_script_passes_its_checks():
    text = (resources.files("gatesim") / "data" / "scripts" / "example-edit.json").read_text()
    scene = apply_edit_script(track_splats(reference_track("uav-slalom")), json.loads(text))
    assert "gate_1_upper" in scene.objects
