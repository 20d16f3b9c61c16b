"""Gaussian-splat scene model: storage, validation, selections and PLY I/O.

A scene is a struct-of-arrays collection of anisotropic 3D gaussians
(mean, rotation quaternion, per-axis scales, RGB color, opacity) plus named
object selections (index sets). Covariances are always derived from
(rotation, scales) as Sigma = R diag(s^2) R^T and never stored.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geometry import UNIT_NORM_TOL, quat_to_mat

# DC coefficient of the zeroth spherical harmonic, 1 / (2 sqrt(pi)).
SH_DC_COEFF = 0.28209479177387814


class ScenePLYError(ValueError):
    """Malformed PLY input; the message names the offending element."""


class SceneValidationError(ValueError):
    """Scene data violates a gaussian invariant; the message carries the index."""


# the per-splat arrays in constructor order, each with the shape of one row
SPLAT_ARRAYS = (("means", (3,)), ("rotations", (4,)), ("scales", (3,)), ("colors", (3,)),
                ("opacities", ()))


class GaussianScene:
    """Ordered gaussians stored as float64 arrays, with named object index sets.

    Object sets may overlap; deletion re-indexes every set consistently.
    Scenes are treated as plain values: share read-only, copy before mutating.
    This class is the one place that names the per-splat arrays: code that
    builds a scene from another goes through replace, take and append.
    """

    def __init__(self, means, rotations, scales, colors, opacities, objects=None):
        for (name, row), values in zip(SPLAT_ARRAYS, (means, rotations, scales, colors, opacities)):
            setattr(self, name, np.asarray(values, dtype=np.float64).reshape(-1, *row))
        self.objects: dict[str, np.ndarray] = {
            k: np.asarray(v, dtype=np.int64) for k, v in (objects or {}).items()
        }
        n = len(self.means)
        for name, _ in SPLAT_ARRAYS[1:]:
            if len(getattr(self, name)) != n:
                raise SceneValidationError(f"{name} length {len(getattr(self, name))} != {n} means")

    @staticmethod
    def empty() -> "GaussianScene":
        return GaussianScene(*(np.zeros((0, *row)) for _, row in SPLAT_ARRAYS))

    def __len__(self) -> int:
        return len(self.means)

    def arrays(self) -> tuple:
        """The per-splat arrays, in constructor order."""
        return tuple(getattr(self, name) for name, _ in SPLAT_ARRAYS)

    def copy(self) -> "GaussianScene":
        return GaussianScene(*(a.copy() for a in self.arrays()),
                             {k: v.copy() for k, v in self.objects.items()})

    def replace(self, **arrays) -> "GaussianScene":
        """This scene with the named per-splat arrays replaced by same-length
        ones. The other arrays and the object index sets are shared, not
        copied (only the objects dict is new), so an edit pays only for the
        arrays it changes."""
        unknown = sorted(set(arrays) - {name for name, _ in SPLAT_ARRAYS})
        if unknown:
            raise TypeError(f"no per-splat array named {', '.join(unknown)}")
        out = GaussianScene.__new__(GaussianScene)
        out.__dict__ = {**self.__dict__, **arrays, "objects": dict(self.objects)}
        return out

    def take(self, rows) -> "GaussianScene":
        """The rows picked by an index array or a boolean mask, in that order,
        as a scene without objects."""
        return GaussianScene(*(a[rows] for a in self.arrays()))

    def append(self, other: "GaussianScene", object_id: str) -> "GaussianScene":
        """This scene followed by other's rows, which become the object
        object_id; this scene's objects are kept and other's are not."""
        n = len(self)
        objects = {**self.objects, object_id: np.arange(n, n + len(other), dtype=np.int64)}
        return GaussianScene(*(np.concatenate(pair) for pair in zip(self.arrays(), other.arrays())),
                             objects)

    def add_object(self, name: str, indices) -> None:
        idx = np.unique(np.asarray(indices, dtype=np.int64))
        if len(idx) and (idx[0] < 0 or idx[-1] >= len(self)):
            raise SceneValidationError(f"object '{name}' references out-of-range indices")
        self.objects[name] = idx

    def validate(self) -> None:
        """Raise SceneValidationError on the first gaussian violating an invariant."""
        fields = (self.means, self.rotations, self.scales, self.colors)
        for arr in fields:
            bad = ~np.isfinite(arr).all(axis=1)
            if bad.any():
                raise SceneValidationError(f"non-finite field at gaussian {int(np.argmax(bad))}")
        bad = ~np.isfinite(self.opacities)
        if bad.any():
            raise SceneValidationError(f"non-finite opacity at gaussian {int(np.argmax(bad))}")

        norms = np.linalg.norm(self.rotations, axis=1)
        bad = np.abs(norms - 1.0) > UNIT_NORM_TOL
        if bad.any():
            raise SceneValidationError(f"non-unit quaternion at gaussian {int(np.argmax(bad))}")
        bad = (self.scales <= 0.0).any(axis=1)
        if bad.any():
            raise SceneValidationError(f"non-positive scale at gaussian {int(np.argmax(bad))}")
        bad = (self.colors < 0.0).any(axis=1) | (self.colors > 1.0).any(axis=1)
        if bad.any():
            raise SceneValidationError(f"color out of [0,1] at gaussian {int(np.argmax(bad))}")
        bad = (self.opacities < 0.0) | (self.opacities > 1.0)
        if bad.any():
            raise SceneValidationError(f"opacity out of [0,1] at gaussian {int(np.argmax(bad))}")
        for name, idx in self.objects.items():
            if len(idx) and (idx.min() < 0 or idx.max() >= len(self)):
                raise SceneValidationError(f"object '{name}' references out-of-range indices")

    def covariances(self, rows=slice(None)) -> np.ndarray:
        """Covariances R diag(s^2) R^T of the given rows (all by default),
        shape (n, 3, 3).

        Entry (i, k) is summed from zero over j = 0, 1, 2 of
        (r_ij * s_j^2) * r_kj, the order of np.einsum("nij,nj,nkj->nik"), so
        it has the einsum's bits. The sum runs channel-major and the result
        is the (n, 3, 3) transpose view of a C-contiguous (3, 3, n) array.
        """
        r = np.ascontiguousarray(quat_to_mat(self.rotations[rows]).transpose(1, 2, 0))
        d = (self.scales[rows] ** 2).T
        out = np.zeros((3, 3, r.shape[-1]))
        for j in range(3):
            out += (r[:, j] * d[j])[:, None] * r[None, :, j]
        return out.transpose(2, 0, 1)


def resolve_selection(scene: GaussianScene, selection) -> np.ndarray:
    """Indices selected by an object id (a str) or by a closed (min, max) box
    over means."""
    if isinstance(selection, str):
        if selection not in scene.objects:
            raise KeyError(f"unknown object id: {selection!r}")
        return np.sort(scene.objects[selection])
    if not (isinstance(selection, (tuple, list)) and len(selection) == 2):
        raise TypeError(f"cannot interpret {selection!r} as a selection")
    lo, hi = (np.asarray(bound, dtype=np.float64) for bound in selection)
    if np.any(lo > hi):
        raise ValueError("box min must be <= box max componentwise")
    return np.flatnonzero(np.all(scene.means >= lo, axis=1) & np.all(scene.means <= hi, axis=1))


# ---------------------------------------------------------------------------
# PLY I/O
#
# Native layout (lossless, all doubles): x y z scale_0..2 rot_0..3 (wxyz)
# opacity red green blue. Also accepted: the common 3DGS training export with
# log-scales, logit opacities and SH DC color terms f_dc_0..2. Both are read
# from binary (little-endian) or ascii PLY; scenes are written binary.
# ---------------------------------------------------------------------------

_NATIVE_PROPS = [
    "x", "y", "z",
    "scale_0", "scale_1", "scale_2",
    "rot_0", "rot_1", "rot_2", "rot_3",
    "opacity", "red", "green", "blue",
]

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _parse_ply_header(data: bytes):
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply") or end < 0:
        raise ScenePLYError("not a PLY file: missing 'ply' magic or 'end_header'")
    header = data[: end + len(b"end_header\n")]
    body = data[len(header):]

    fmt = None
    count = None
    props: list[tuple[str, str]] = []
    in_vertex = False
    for raw in header.decode("ascii", errors="replace").splitlines():
        parts = raw.strip().split()
        if not parts or parts[0] in ("ply", "comment", "obj_info", "end_header"):
            continue
        if parts[0] == "format":
            if len(parts) < 2 or parts[1] not in ("ascii", "binary_little_endian"):
                raise ScenePLYError(f"unsupported PLY format line: {raw.strip()!r}")
            fmt = parts[1]
        elif parts[0] == "element":
            if len(parts) != 3:
                raise ScenePLYError(f"malformed element line: {raw.strip()!r}")
            if not parts[2].isdigit():
                raise ScenePLYError(f"element count is not an integer >= 0: {raw.strip()!r}")
            if parts[1] == "vertex":
                count = int(parts[2])
                in_vertex = True
            else:
                if int(parts[2]) != 0:
                    raise ScenePLYError(f"unsupported non-empty element '{parts[1]}'")
                in_vertex = False
        elif parts[0] == "property":
            if not in_vertex:
                continue
            if parts[1] == "list":
                raise ScenePLYError(f"unsupported list property '{parts[-1]}'")
            if len(parts) != 3 or parts[1] not in _PLY_TYPES:
                raise ScenePLYError(f"malformed property line: {raw.strip()!r}")
            props.append((parts[2], _PLY_TYPES[parts[1]]))
        else:
            raise ScenePLYError(f"unrecognized header line: {raw.strip()!r}")
    if fmt is None:
        raise ScenePLYError("missing 'format' line")
    if count is None:
        raise ScenePLYError("missing 'element vertex' line")
    return fmt, count, props, body


def _read_columns(fmt, count, props, body) -> dict[str, np.ndarray]:
    names = [p[0] for p in props]
    if len(set(names)) != len(names):
        raise ScenePLYError("duplicate property names in vertex element")
    if fmt == "binary_little_endian":
        dtype = np.dtype([(n, "<" + t) for n, t in props])
        need = dtype.itemsize * count
        if len(body) < need:
            raise ScenePLYError(
                f"element vertex: expected {need} payload bytes, got {len(body)}"
            )
        rows = np.frombuffer(body[:need], dtype=dtype)
        return {n: rows[n].astype(np.float64) for n in names}
    tokens = body.split()
    need = len(props) * count
    if len(tokens) < need:
        raise ScenePLYError(
            f"element vertex: expected {need} ascii values, got {len(tokens)}"
        )
    try:
        flat = np.array(tokens[:need], dtype=np.float64)
    except ValueError as e:
        raise ScenePLYError(f"element vertex: non-numeric ascii payload ({e})") from None
    table = flat.reshape(count, len(props))
    return {n: table[:, i] for i, n in enumerate(names)}


def load_scene(data: bytes) -> GaussianScene:
    """Parse PLY bytes (native layout or 3DGS training export) into a scene.

    3DGS-layout fields are converted on load: scales exp(), opacities
    sigmoid(), colors 0.5 + SH_DC_COEFF * f_dc clamped to [0, 1], rotations
    normalized.
    """
    fmt, count, props, body = _parse_ply_header(data)
    cols = _read_columns(fmt, count, props, body)

    def need(name: str) -> np.ndarray:
        if name not in cols:
            raise ScenePLYError(f"element vertex: missing property '{name}'")
        return cols[name]

    means = np.stack([need("x"), need("y"), need("z")], axis=1) if count else np.zeros((0, 3))
    if count == 0:
        return GaussianScene.empty()

    scales = np.stack([need(f"scale_{i}") for i in range(3)], axis=1)
    rots = np.stack([need(f"rot_{i}") for i in range(4)], axis=1)
    opac = need("opacity")

    if "f_dc_0" in cols:
        # 3DGS export layout
        f_dc = np.stack([need(f"f_dc_{i}") for i in range(3)], axis=1)
        colors = np.clip(0.5 + SH_DC_COEFF * f_dc, 0.0, 1.0)
        scales = np.exp(scales)
        opac = 1.0 / (1.0 + np.exp(-opac))
        norms = np.linalg.norm(rots, axis=1)
        if np.any(norms == 0.0):
            raise SceneValidationError(
                f"zero-norm quaternion at gaussian {int(np.argmax(norms == 0.0))}"
            )
        rots = rots / norms[:, None]
    elif "red" in cols:
        colors = np.stack([need("red"), need("green"), need("blue")], axis=1)
    else:
        raise ScenePLYError("element vertex: missing property 'red' (or 'f_dc_0')")

    scene = GaussianScene(means, rots, scales, colors, opac)
    scene.validate()
    return scene


def save_scene(scene: GaussianScene) -> bytes:
    """Serialize to the native binary PLY layout (doubles; lossless round-trip)."""
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(scene)}"]
    header += [f"property double {p}" for p in _NATIVE_PROPS]
    header.append("end_header")
    head = ("\n".join(header) + "\n").encode("ascii")

    table = np.concatenate(
        [scene.means, scene.scales, scene.rotations, scene.opacities[:, None], scene.colors],
        axis=1,
    )
    return head + np.ascontiguousarray(table, dtype="<f8").tobytes()


def save_objects_json(scene: GaussianScene) -> str:
    """Object-label sidecar: JSON map {object-id: [indices]}."""
    return json.dumps(
        {k: [int(i) for i in v] for k, v in sorted(scene.objects.items())},
        indent=2,
        sort_keys=True,
    )


def load_objects_json(scene: GaussianScene, text: str) -> None:
    for name, idx in json.loads(text).items():
        scene.add_object(name, idx)


def write_scene(path, scene: GaussianScene) -> None:
    """Write PLY plus the `<stem>.objects.json` sidecar when objects exist."""
    path = Path(path)
    path.write_bytes(save_scene(scene))
    sidecar = path.with_suffix(".objects.json")
    if scene.objects:
        sidecar.write_text(save_objects_json(scene) + "\n")


def read_scene(path) -> GaussianScene:
    path = Path(path)
    scene = load_scene(path.read_bytes())
    sidecar = path.with_suffix(".objects.json")
    if sidecar.exists():
        load_objects_json(scene, sidecar.read_text())
    return scene

