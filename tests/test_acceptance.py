"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single `[acceptance] ...` line with the measured numbers
so a `pytest -v` run doubles as the verification report. Oracles here are
deliberately independent of the library code paths they check: scipy
rotations for camera/gate frames, a scalar per-pixel ray caster for masks,
closed-form circles for the dynamics, and scipy.stats for the sampler.
"""

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy import stats as scipy_stats
from scipy.spatial.transform import Rotation

from gatesim.cli import main
from gatesim.dynamics import UavDynamics
from gatesim.edits import delete, duplicate, rotate, scale, translate
from gatesim.policies import SyntheticLearner, expert_policy
from gatesim.refinement import (
    GridPartition,
    PgrConfig,
    build_validation_set,
    pgr_pair,
    top_decile_allocation,
    weights,
    worst_grid_loss,
)
from gatesim.render import (
    DEFAULT_CAMERA,
    camera_pose,
    gate_mask,
    pgm_bytes,
    ppm_bytes,
)
from gatesim.scene import SPLAT_ARRAYS, read_scene, write_scene
from gatesim.tracks import Gate

from conftest import random_scene, random_unit_quats, read_netpbm

FIELDS = tuple(name for name, _ in SPLAT_ARRAYS)


def _report(capsys, line):
    with capsys.disabled():
        print(f"\n[acceptance] {line} -- PASS", flush=True)


def _metrics_rows(out_dir):
    rows = []
    for line in (Path(out_dir) / "metrics.csv").read_text().splitlines():
        if line.startswith("track,") or line.startswith("#"):
            continue
        track, policy, trials, gates, succ, sr, mge = line.split(",")
        rows.append(
            {
                "track": track,
                "policy": policy,
                "gates": int(gates),
                "successes": int(succ),
                "sr": float(sr),
                "mge": None if mge == "" else float(mge),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# 1. edit algebra
# ---------------------------------------------------------------------------


def test_edit_algebra_on_randomized_scenes(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(20, 80))
        scene = random_scene(rng, n)
        k_sel = int(rng.integers(1, n + 1))
        sel = np.sort(rng.choice(n, size=k_sel, replace=False))
        scene.add_object("sel", sel)
        unsel = np.setdiff1d(np.arange(n), sel)

        delta = rng.uniform(-5.0, 5.0, size=3)
        q = random_unit_quats(rng, 1)[0]
        pivot = rng.uniform(-3.0, 3.0, size=3)
        k = float(rng.uniform(0.2, 4.0))

        pairs = (
            (lambda s: translate(s, "sel", delta), lambda s: translate(s, "sel", -delta)),
            (lambda s: rotate(s, "sel", q, pivot),
             lambda s: rotate(s, "sel", q * [1.0, -1.0, -1.0, -1.0], pivot)),
            (lambda s: scale(s, "sel", k, pivot), lambda s: scale(s, "sel", 1.0 / k, pivot)),
        )
        for fwd, back in pairs:
            out = back(fwd(scene))
            err = max(
                np.abs(out.means - scene.means).max(),
                np.abs(out.covariances() - scene.covariances()).max(),
                np.abs(out.scales - scene.scales).max(),
                # quaternion restore is only defined up to sign
                np.minimum(
                    np.abs(out.rotations - scene.rotations).max(axis=1),
                    np.abs(out.rotations + scene.rotations).max(axis=1),
                ).max(),
            )
            worst = max(worst, err)
            assert err < 1e-9
            for field in FIELDS:
                a, b = getattr(out, field), getattr(scene, field)
                assert np.array_equal(a[unsel], b[unsel]), f"unselected {field} changed"

        dup, copy_id = duplicate(scene, "sel", rng.uniform(-1, 1, size=3), "copy")
        assert len(dup) == n + k_sel and copy_id == "copy"
        back = delete(dup, "copy")
        assert len(back) == n
        assert all(np.array_equal(getattr(back, f), getattr(scene, f)) for f in FIELDS)
        assert len(delete(scene, "sel")) == n - k_sel

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(capsys, f"edit algebra, 1000 scenes: worst restore error {worst:.2e}, "
                    f"unselected bit-identical, cardinality exact, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. edit throughput
# ---------------------------------------------------------------------------


def test_translate_throughput_100k(capsys):
    scene = random_scene(np.random.default_rng(7), 100_000)
    scene.add_object("all", np.arange(100_000))
    delta = (0.1, -0.2, 0.05)
    for _ in range(2):
        translate(scene, "all", delta)
    times = []
    for _ in range(11):
        t0 = time.perf_counter()
        translate(scene, "all", delta)
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    assert med <= 0.010
    _report(capsys, f"translate over 100k-gaussian selection: median {med * 1e3:.2f} ms "
                    f"(budget 10 ms, single core)")


# ---------------------------------------------------------------------------
# 3. analytic gate masks vs brute-force ray casting
# ---------------------------------------------------------------------------


def _oracle_mask(gate, camera, position, yaw, pitch):
    """Per-pixel scalar ray caster; rotations built via scipy, not gatesim."""
    # camera axes at yaw=pitch=0 are right=(0,-1,0), down=(0,0,-1),
    # forward=(1,0,0); general pose composes world-z yaw with world-y pitch
    base = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    rot = (Rotation.from_euler("z", yaw) * Rotation.from_euler("y", -pitch)).as_matrix() @ base
    r00, r01, r02 = rot[0]
    r10, r11, r12 = rot[1]
    r20, r21, r22 = rot[2]

    _, center, gyaw = gate.keyframes[0]
    gz = Rotation.from_euler("z", gyaw).as_matrix()
    nx, ny, nz = gz @ (1.0, 0.0, 0.0)
    lx, ly, lz = gz @ (0.0, 1.0, 0.0)
    ux, uy, uz = 0.0, 0.0, 1.0

    ox, oy, oz = float(position[0]), float(position[1]), float(position[2])
    rhs = nx * (center[0] - ox) + ny * (center[1] - oy) + nz * (center[2] - oz)
    inner, outer = gate.inner_half, gate.outer_half
    square = gate.shape == "square"

    mask = np.zeros((camera.height, camera.width), dtype=bool)
    for row in range(camera.height):
        b = (row - camera.cy) / camera.fy
        for col in range(camera.width):
            a = (col - camera.cx) / camera.fx
            dx = r00 * a + r01 * b + r02
            dy = r10 * a + r11 * b + r12
            dz = r20 * a + r21 * b + r22
            denom = nx * dx + ny * dy + nz * dz
            if abs(denom) <= 1e-12:
                continue
            th = rhs / denom
            if th <= 0.0:
                continue
            qx = ox + th * dx - center[0]
            qy = oy + th * dy - center[1]
            qz = oz + th * dz - center[2]
            s1 = qx * lx + qy * ly + qz * lz
            s2 = qx * ux + qy * uy + qz * uz
            d = max(abs(s1), abs(s2)) if square else math.hypot(s1, s2)
            if inner <= d <= outer:
                mask[row, col] = True
    return mask


def test_gate_mask_vs_brute_force_rays(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    cam = DEFAULT_CAMERA
    agreements = []
    nonempty = 0
    disagreeing_pairs = 0
    for i in range(100):
        shape = "square" if i % 2 == 0 else "circular"
        inner = float(rng.uniform(0.3, 1.1))
        ring = float(rng.uniform(0.08, 0.35))
        center = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(1.0, 3.0)])
        gyaw = float(rng.uniform(-math.pi, math.pi))
        gate = Gate.static(shape, inner, ring, center, gyaw)

        dist = float(rng.uniform(max(1.2, 2.0 * gate.outer_half), 8.0))
        azim = float(rng.uniform(-math.pi, math.pi))
        elev = float(rng.uniform(-0.3, 0.3))
        pos = center + dist * np.array(
            [math.cos(azim) * math.cos(elev), math.sin(azim) * math.cos(elev), math.sin(elev)]
        )
        pos[2] = max(pos[2], 0.3)
        look = center - pos
        yaw = math.atan2(look[1], look[0]) + float(rng.normal(0.0, 0.1))
        pitch = math.atan2(look[2], math.hypot(look[0], look[1])) + float(rng.normal(0.0, 0.05))

        produced = gate_mask([gate], cam, camera_pose(pos, yaw, pitch))
        oracle = _oracle_mask(gate, cam, pos, yaw, pitch)
        agree = float(np.mean(produced == oracle))
        agreements.append(agree)
        nonempty += bool(oracle.any())
        assert agree >= 0.99, f"pair {i}: agreement {agree:.4f}"

        diff = produced ^ oracle
        if diff.any():
            disagreeing_pairs += 1
            # any disagreement must sit within 1 px of a ring boundary
            near_edge = ndimage.binary_dilation(
                oracle, np.ones((3, 3), bool), border_value=0
            ) & ~ndimage.binary_erosion(oracle, np.ones((3, 3), bool), border_value=1)
            assert not (diff & ~near_edge).any()

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert nonempty >= 70  # the sample must actually exercise visible rings
    _report(capsys, f"gate mask vs brute-force rays, 100 pairs: min agreement "
                    f"{min(agreements) * 100:.2f}%, {disagreeing_pairs} pairs with any "
                    f"disagreement, {nonempty} non-empty, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 4. dynamics
# ---------------------------------------------------------------------------


def test_uav_constant_turn_circle_and_rk4_order(capsys):
    dyn = UavDynamics()
    dt = dyn.params.dt
    radius = dyn.params.speed / 0.5  # V / omega = 14 m
    state = dyn.initial_state((0.0, 0.0, 2.0), yaw=0.0)
    worst = 0.0
    for step in range(1, round(10.0 / dt) + 1):
        state = dyn.step(state, (0.5, 0.0), dt)
        t = step * dt
        analytic = np.array(
            [radius * math.sin(0.5 * t), radius * (1.0 - math.cos(0.5 * t)), 2.0]
        )
        worst = max(worst, float(np.linalg.norm(state[:3] - analytic)))
    assert worst < 1e-3

    # order check on a smooth turning-climb command (pitch stays unsaturated)
    def endpoint(h):
        s = dyn.initial_state((0.0, 0.0, 2.0), yaw=0.0)
        for _ in range(round(2.0 / h)):
            s = dyn.step(s, (0.5, 0.15), h)
        return np.asarray(s)

    ref = endpoint(0.003125)
    e1 = float(np.linalg.norm(endpoint(0.05) - ref))
    e2 = float(np.linalg.norm(endpoint(0.025) - ref))
    ratio = e1 / e2
    assert ratio >= 8.0
    _report(capsys, f"uav circle R=14 m: max position error {worst:.2e} m over 10 s; "
                    f"rk4 halving ratio {ratio:.1f}x (>= 8x)")


# ---------------------------------------------------------------------------
# 5. expert closed loop on the shipped tracks
# ---------------------------------------------------------------------------


def test_expert_succeeds_on_all_reference_tracks(capsys, tmp_path):
    t0 = time.perf_counter()
    assert main(["evaluate", "--trials", "10", "--seed", "0", "--jobs", "4",
                 "--out", str(tmp_path)]) == 0
    rows = _metrics_rows(tmp_path)
    elapsed = time.perf_counter() - t0
    assert sorted(r["track"] for r in rows) == [
        "quad-drift", "quad-scatter", "quad-turn",
        "uav-scatter", "uav-shift", "uav-slalom",
    ]
    for r in rows:
        assert r["successes"] == r["gates"], f"{r['track']}: {r['successes']}/{r['gates']}"
        assert r["sr"] == 1.0
        bound = 0.8 if r["track"].startswith("uav") else 0.30
        assert r["mge"] is not None and r["mge"] <= bound
    assert elapsed < 300.0
    worst_mge = max(r["mge"] for r in rows)
    _report(capsys, f"expert closed loop: 6 tracks x 10 seeded inits all SR=100%, "
                    f"worst MGE {worst_mge:.3f} m, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6. classical mask controller
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_classical_mask_controller_srs(capsys, tmp_path):
    t0 = time.perf_counter()
    assert main(["evaluate", "--policy", "classical", "--trials", "10", "--seed", "1",
                 "--jobs", "4", "--out", str(tmp_path / "clean")]) == 0
    clean = _metrics_rows(tmp_path / "clean")
    assert sorted(r["track"] for r in clean) == ["quad-drift", "quad-scatter", "quad-turn"]
    for r in clean:
        assert r["sr"] == 1.0, f"noise-free {r['track']}: SR {r['sr']}"

    assert main(["evaluate", "--policy", "classical-noisy", "--trials", "10", "--seed", "1",
                 "--jobs", "4", "--out", str(tmp_path / "noisy")]) == 0
    noisy = _metrics_rows(tmp_path / "noisy")
    total = sum(r["gates"] for r in noisy)
    succ = sum(r["successes"] for r in noisy)
    sr = succ / total
    assert sr >= 0.90, f"noisy SR {sr:.3f}"
    elapsed = time.perf_counter() - t0
    _report(capsys, f"classical mask controller: noise-free SR=100% on 3 quad tracks, "
                    f"noisy SR {sr * 100:.1f}% ({succ}/{total}), {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 7. refinement weights and the beta=1 sampler
# ---------------------------------------------------------------------------


def test_weight_floor_and_uniform_sampler(capsys):
    rng = np.random.default_rng(17)
    worst_sum = 0.0
    for _ in range(300):
        m = int(rng.integers(1, 400))
        beta = float(rng.uniform(0.0, 1.0))
        ell = np.zeros(m) if rng.random() < 0.1 else rng.uniform(0.0, 5.0, size=m)
        w = weights(ell, beta)
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        assert abs(float(w.sum()) - 1.0) <= 1e-12
        assert float(w.min()) + 1e-15 >= beta / m
        assert (w >= 0.0).all()

    m = 64
    w = weights(rng.uniform(0.0, 3.0, size=m), 1.0)
    draws = rng.choice(m, size=100_000, p=w)
    counts = np.bincount(draws, minlength=m)
    p_value = float(scipy_stats.chisquare(counts).pvalue)
    assert p_value > 0.01
    _report(capsys, f"refinement weights: worst |sum-1| {worst_sum:.1e}, floor beta/M held; "
                    f"beta=1 sampler chi-square p={p_value:.3f} over 1e5 draws")


# ---------------------------------------------------------------------------
# 8. refinement concentrates on hard cells
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_refinement_beats_uniform_on_worst_cell(capsys):
    t0 = time.perf_counter()
    partition = GridPartition.default("uav", PgrConfig.per_gate_counts)
    expert = expert_policy("uav")
    worst_g, worst_u = [], []
    alloc_g = {1: [], 2: []}
    alloc_u = {1: [], 2: []}
    for master in range(10):
        config = PgrConfig(platform="uav", iterations=3, beta=0.05,
                           initial_per_cell=1, val_per_cell=2, tick_hz=10.0, seed=master)
        g_val = build_validation_set(partition, config, expert)

        def learner():
            return SyntheticLearner(partition, expert_policy("uav"), n0=2.0)

        guided, uniform = pgr_pair(partition, learner(), expert, config, g_val)
        worst_g.append(worst_grid_loss(guided.history[-1]))
        worst_u.append(worst_grid_loss(uniform.history[-1]))
        for it in (1, 2):
            alloc_g[it].append(top_decile_allocation(guided.history[it - 1], guided.history[it]))
            alloc_u[it].append(top_decile_allocation(uniform.history[it - 1], uniform.history[it]))

    med_g = float(np.median(worst_g))
    med_u = float(np.median(worst_u))
    assert med_g <= med_u, f"median worst-grid loss: guided {med_g:.4f} vs uniform {med_u:.4f}"
    ratios = {}
    for it in (1, 2):
        ratios[it] = float(np.mean(alloc_g[it]) / np.mean(alloc_u[it]))
        assert ratios[it] >= 1.5, f"iteration {it + 1} allocation ratio {ratios[it]:.2f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(capsys, f"refinement, 256 cells, T=3, beta=0.05, 10 seeds: median worst-grid "
                    f"loss {med_g:.4f} vs uniform {med_u:.4f}; top-decile allocation "
                    f"{ratios[1]:.2f}x / {ratios[2]:.2f}x uniform (>= 1.5x), {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 9. gate-position perturbation sweep
# ---------------------------------------------------------------------------


def test_expert_sr_does_not_rise_with_perturbation(capsys, tmp_path):
    assert main(["perturb", "--track", "uav-slalom", "--levels", "0,20,40,60,80",
                 "--tracks-per-level", "10", "--seed", "0", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "summary.json").read_text())
    rho = payload["spearman_rho"]
    curve = [(c["level_cm"], c["sr"]) for c in payload["curve"]]
    assert rho <= 0.0, f"spearman rho {rho}"
    srs = " ".join(f"{int(lv)}cm:{sr * 100:.0f}%" for lv, sr in curve)
    _report(capsys, f"perturbation sweep on uav-slalom: SR {srs}; spearman rho {rho:.3f} <= 0")


# ---------------------------------------------------------------------------
# 10. byte-stable files and reproducible runs
# ---------------------------------------------------------------------------


def test_file_round_trips_and_reproducible_runs(capsys, tmp_path):
    rng = np.random.default_rng(31)
    scene = random_scene(rng, 256)
    scene.add_object("a", np.arange(10))
    scene.add_object("b", np.arange(50, 80))
    p1, p2 = tmp_path / "s1.ply", tmp_path / "s2.ply"
    write_scene(p1, scene)
    write_scene(p2, read_scene(p1))
    assert p1.read_bytes() == p2.read_bytes()
    assert (p1.with_suffix(".objects.json").read_bytes()
            == p2.with_suffix(".objects.json").read_bytes())

    rgb = rng.random((24, 32, 3))
    blob = ppm_bytes(rgb)
    assert ppm_bytes(read_netpbm(blob)) == blob
    gray = rng.random((24, 32))
    blob = pgm_bytes(gray)
    assert pgm_bytes(read_netpbm(blob)) == blob

    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes()
                for p in Path(root).rglob("*") if p.is_file()}

    ev = ["evaluate", "--tracks", "uav-shift", "--trials", "2", "--seed", "9"]
    assert main(ev + ["--out", str(tmp_path / "e1")]) == 0
    assert main(ev + ["--out", str(tmp_path / "e2")]) == 0
    assert tree(tmp_path / "e1") == tree(tmp_path / "e2")

    cfg = tmp_path / "pgr.json"
    cfg.write_text(json.dumps({"per_gate_counts": [2, 1, 1, 1], "iterations": 2,
                               "initial_per_cell": 1, "val_per_cell": 1, "tick_hz": 10.0}))
    pg = ["pgr", "--config", str(cfg), "--seed", "3"]
    assert main(pg + ["--out", str(tmp_path / "p1")]) == 0
    assert main(pg + ["--out", str(tmp_path / "p2")]) == 0
    assert tree(tmp_path / "p1") == tree(tmp_path / "p2")

    _report(capsys, "file round trips byte-identical (PLY+objects, PPM, PGM); "
                    "evaluate and refinement reruns byte-identical")
