"""Composable world-frame edits over gaussian scenes.

Every edit takes a scene plus a selection (an object id, or a closed
(min, max) box) and returns a new scene; input scenes are never mutated.
Arrays a given edit does not touch are shared with the input
(GaussianScene.replace), so unselected gaussians stay bit-identical and
large-scene edits only pay for the fields they change.
"""

from __future__ import annotations

import warnings

import numpy as np

from .geometry import (
    RigidTransform,
    quat_from_axis_angle,
    quat_from_yaw,
    quat_mul,
    quat_normalize,
    quat_rotate,
)
from .scene import GaussianScene, resolve_selection


class EmptySelectionWarning(UserWarning):
    """A selection matched no gaussians; the edit was a no-op."""


def _select(scene: GaussianScene, selection, op: str) -> np.ndarray | None:
    idx = resolve_selection(scene, selection)
    if len(idx) == 0:
        warnings.warn(f"{op}: empty selection, no gaussians affected", EmptySelectionWarning)
        return None
    return idx


def _pivot(scene: GaussianScene, idx: np.ndarray, pivot) -> np.ndarray:
    if pivot is not None:
        return np.asarray(pivot, dtype=np.float64)
    return scene.means[idx].mean(axis=0)


def fresh_object_id(scene: GaussianScene, base: str) -> str:
    """'base' if free, otherwise the first free 'base_2', 'base_3', ..."""
    if base not in scene.objects:
        return base
    k = 2
    while f"{base}_{k}" in scene.objects:
        k += 1
    return f"{base}_{k}"


def add(
    scene: GaussianScene,
    foreign: GaussianScene,
    foreign_selection=None,
    pose: RigidTransform | None = None,
    object_id: str | None = None,
) -> tuple[GaussianScene, str]:
    """Insert gaussians from another scene, posed, under a fresh object id.

    foreign_selection defaults to the whole donor scene; pose defaults to the
    identity. Donor means are mapped by the pose and rotations left-composed
    with its rotation; scales are kept. A colliding object id gets a
    deterministic numeric suffix. Returns (scene, id).
    """
    if foreign_selection is None:
        idx = np.arange(len(foreign), dtype=np.int64)
    else:
        idx = resolve_selection(foreign, foreign_selection)
    if len(idx) == 0:
        raise ValueError("add: empty foreign selection")
    pose = pose if pose is not None else RigidTransform.identity()
    rows = foreign.take(idx)
    posed = rows.replace(
        means=pose.apply(rows.means),
        rotations=quat_normalize(quat_mul(pose.rotation, rows.rotations)),
    )

    base_name = object_id
    if base_name is None:
        base_name = foreign_selection if isinstance(foreign_selection, str) else "object"
    new_id = fresh_object_id(scene, base_name)
    return scene.append(posed, new_id), new_id


def translate(scene: GaussianScene, selection, offset) -> GaussianScene:
    """Rigid translation of the selected gaussians by a world-frame offset."""
    idx = _select(scene, selection, "translate")
    if idx is None:
        return scene
    means = scene.means.copy()
    means[idx] += np.asarray(offset, dtype=np.float64)
    return scene.replace(means=means)


def rotate(scene: GaussianScene, selection, rotation, pivot=None) -> GaussianScene:
    """Rotate the selection by a unit quaternion about a pivot point.

    The pivot defaults to the centroid of the selected means. Gaussian
    orientations are left-composed with the rotation.
    """
    idx = _select(scene, selection, "rotate")
    if idx is None:
        return scene
    q = quat_normalize(rotation)
    p = _pivot(scene, idx, pivot)
    means, rotations = scene.means.copy(), scene.rotations.copy()
    means[idx] = p + quat_rotate(q, scene.means[idx] - p)
    rotations[idx] = quat_normalize(quat_mul(q, scene.rotations[idx]))
    return scene.replace(means=means, rotations=rotations)


def scale(scene: GaussianScene, selection, factor, pivot=None) -> GaussianScene:
    """Scale the selection about a pivot (default: centroid); geometry only.

    factor is a positive scalar or a per-world-axis 3-vector. Means move
    radially from the pivot; per-gaussian extents multiply componentwise,
    which is exact for uniform factors and an axis-aligned approximation for
    anisotropic ones. Color and opacity are untouched.
    """
    k = np.asarray(factor, dtype=np.float64).reshape(-1)
    if k.shape not in ((1,), (3,)):
        raise ValueError("scale factor must be a scalar or a 3-vector")
    if np.any(k <= 0.0):
        raise ValueError(f"scale factors must be > 0, got {factor}")
    idx = _select(scene, selection, "scale")
    if idx is None:
        return scene
    p = _pivot(scene, idx, pivot)
    means, scales = scene.means.copy(), scene.scales.copy()
    means[idx] = p + k * (scene.means[idx] - p)
    scales[idx] *= k if k.shape == (1,) else k[None, :]
    return scene.replace(means=means, scales=scales)


def duplicate(
    scene: GaussianScene, selection, offset=(0.0, 0.0, 0.0), object_id: str | None = None
) -> tuple[GaussianScene, str]:
    """Copy the selection, shift the copy by offset, tag it as a new object.

    Returns (scene, id-of-the-copy). The id is object_id when given (must be
    free), otherwise derived from the selection with a numeric suffix.
    """
    idx = resolve_selection(scene, selection)
    if len(idx) == 0:
        raise ValueError("duplicate: empty selection")
    base = object_id
    if base is None:
        base = (selection if isinstance(selection, str) else "selection") + "_copy"
    new_id = fresh_object_id(scene, base)
    rows = scene.take(idx)
    rows = rows.replace(means=rows.means + np.asarray(offset, float))
    return scene.append(rows, new_id), new_id


def delete(scene: GaussianScene, selection) -> GaussianScene:
    """Remove the selection and re-index every object set consistently.

    Object entries whose members were all deleted are kept as empty sets so
    ids remain stable for later edits.
    """
    idx = _select(scene, selection, "delete")
    if idx is None:
        return scene
    keep = np.ones(len(scene), dtype=bool)
    keep[idx] = False
    # old index -> new index for survivors
    remap = np.cumsum(keep) - 1
    out = scene.take(keep)
    out.objects = {
        name: remap[members[keep[members]]].astype(np.int64)
        for name, members in scene.objects.items()
    }
    return out


def lighting(scene: GaussianScene, selection, mode: str, rgb) -> GaussianScene:
    """Color edit of the selection: multiply by rgb (clamped) or replace with it.

    Multiply gains must be >= 0 (results clamp to [0, 1]); replacement colors
    must already be in [0, 1]. Geometry and opacity are untouched.
    """
    rgb = np.asarray(rgb, dtype=np.float64).reshape(3)
    if mode not in ("multiply", "replace"):
        raise ValueError(f"lighting mode must be 'multiply' or 'replace', got {mode!r}")
    if np.any(rgb < 0.0) or (mode == "replace" and np.any(rgb > 1.0)):
        raise ValueError(f"rgb out of range for {mode}: {rgb.tolist()}")
    idx = _select(scene, selection, "lighting")
    if idx is None:
        return scene
    colors = scene.colors.copy()
    colors[idx] = np.clip(scene.colors[idx] * rgb, 0.0, 1.0) if mode == "multiply" else rgb
    return scene.replace(colors=colors)


# ---------------------------------------------------------------------------
# Scripted edits: a JSON-friendly list of op records applied in order
# ---------------------------------------------------------------------------


# the keys each op reads besides "op", one tuple per accepted form, with "?"
# marking a key the record may leave out
_RECORD_KEYS = {
    "translate": [("selection", "delta")],
    "rotate": [("selection", "quaternion", "pivot?"), ("selection", "axis", "angle", "pivot?")],
    "scale": [("selection", "factor", "pivot?")],
    "duplicate": [("selection", "offset?", "object_id?")],
    "delete": [("selection",)],
    "lighting": [("selection", "mode", "rgb")],
    "add": [("scene", "selection?", "translation?", "yaw?", "object_id?")],
}


def _check_keys(index: int, record) -> None:
    """Refuse a record that is not an object, names an unknown op, or lacks or
    adds a key to its op's form: a form it gives every needed key of, if any."""
    if not isinstance(record, dict):
        raise ValueError(f"edit record {index}: expected a JSON object, got {record!r}")
    op, given = record.get("op"), set(record) - {"op"}
    if op not in _RECORD_KEYS:
        raise ValueError(f"edit record {index}: unknown edit op: {op!r}")
    forms = _RECORD_KEYS[op]
    needs = [{k for k in form if not k.endswith("?")} for form in forms]
    i = max(range(len(forms)), key=lambda i: (needs[i] <= given, len(needs[i] & given)))
    missing = sorted(needs[i] - given)
    if missing:
        raise ValueError(f"edit record {index}: {op} needs {missing[0]!r}")
    reads = [k.rstrip("?") for k in forms[i]]
    unread = sorted(given - set(reads))
    if unread:
        raise ValueError(f"edit record {index}: {op} does not read {unread[0]!r}; "
                         f"it reads {', '.join(reads)}")


def _script_selection(index: int, record):
    """The record's selection as resolve_selection takes it (None when it
    gives none): an object id, or the (min, max) of {"box": [min, max]}."""
    sel = record.get("selection")
    if "selection" not in record or isinstance(sel, str):
        return sel
    box = sel.get("box") if isinstance(sel, dict) and len(sel) == 1 else None
    if isinstance(box, list) and len(box) == 2 and all(isinstance(b, list) and len(b) == 3
                                                       for b in box):
        return tuple(box)
    raise ValueError(f'edit record {index}: selection must be an object id or {{"box": '
                     f"[min, max]}} of two 3-vectors, got {sel!r}")


def _script_rotation(record) -> np.ndarray:
    if "quaternion" in record:
        return quat_normalize(record["quaternion"])
    return quat_from_axis_angle(record["axis"], float(record["angle"]))


# the number fields of edit records and the shape each must have (a scale
# factor is a scalar or a 3-vector, which scale checks); a NaN or inf in any
# of them would write a scene that read_scene refuses
_NUMBER_FIELDS = {"delta": (3,), "quaternion": (4,), "axis": (3,), "angle": (), "pivot": (3,),
                  "factor": None, "offset": (3,), "rgb": (3,), "translation": (3,), "yaw": ()}


def _check_numbers(index: int, record) -> None:
    for field, shape in _NUMBER_FIELDS.items():
        if record.get(field) is None:
            continue
        try:
            values = np.asarray(record[field], dtype=np.float64)
        except (TypeError, ValueError):
            values = None  # not numbers at all
        if values is None or (shape is not None and values.shape != shape):
            what = ("one number or 3 numbers" if shape is None
                    else f"{shape[0]} numbers" if shape else "one number")
            raise ValueError(f"edit record {index}: {field} must be {what}, got {record[field]}")
        if not np.isfinite(values).all():
            raise ValueError(f"edit record {index}: non-finite {field}: {record[field]}")


def apply_edit_script(scene: GaussianScene, ops, donor_loader=None) -> GaussianScene:
    """Apply a list of edit records (dicts with an 'op' key) in order.

    A record's other keys are one of its op's forms in _RECORD_KEYS. 'add'
    resolves its donor through donor_loader(path); selections are
    object-id strings or {"box": [min, max]}. A record with an unknown op, a
    missing or unread key, a malformed selection, or a number field of the
    wrong shape or with a NaN or inf is refused with its index and the key's
    name; a ValueError or KeyError from its edit, or an OSError from
    donor_loader, is re-raised as a ValueError with its index.
    """
    for index, record in enumerate(ops):
        _check_keys(index, record)
        _check_numbers(index, record)
        sel = _script_selection(index, record)
        try:
            scene = _apply_record(scene, record, sel, donor_loader)
        except (ValueError, KeyError, OSError) as e:
            # the plain text of a KeyError, whose str() is its message's repr
            message = e.args[0] if isinstance(e, KeyError) and e.args else e
            raise ValueError(f"edit record {index}: {message}") from e
    return scene


def _apply_record(scene: GaussianScene, record, sel, donor_loader) -> GaussianScene:
    """The scene after one checked edit record whose selection is sel."""
    op = record["op"]
    if op == "translate":
        return translate(scene, sel, record["delta"])
    if op == "rotate":
        return rotate(scene, sel, _script_rotation(record), record.get("pivot"))
    if op == "scale":
        return scale(scene, sel, record["factor"], record.get("pivot"))
    if op == "duplicate":
        return duplicate(scene, sel, record.get("offset", (0.0, 0.0, 0.0)),
                         record.get("object_id"))[0]
    if op == "delete":
        return delete(scene, sel)
    if op == "lighting":
        return lighting(scene, sel, record["mode"], record["rgb"])
    # "add", the one op left in _RECORD_KEYS
    if donor_loader is None:
        raise ValueError("edit script uses 'add' but no donor loader was given")
    donor = donor_loader(record["scene"])
    pose = RigidTransform(
        quat_from_yaw(float(record.get("yaw", 0.0))),
        np.asarray(record.get("translation", (0.0, 0.0, 0.0)), dtype=np.float64),
    )
    return add(scene, donor, sel, pose, record.get("object_id"))[0]
