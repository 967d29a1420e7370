"""Output checks computed apart from pdfuse.

Each check takes the program's output and the inputs it was given and
returns ``(passed, detail)``. The references here are written from the
method's definitions (the keypoint text format, the window normalization,
the folded affine form of the fusion head, the generator's closed-form
inverse), not by calling the code under test, so a wrong output cannot pass
by agreeing with itself.
"""

from __future__ import annotations

import json

import numpy as np

LEFT_SHOULDER, RIGHT_SHOULDER, LEFT_HIP, RIGHT_HIP = 5, 6, 11, 12
NUM_JOINTS = 17


def relative_error(actual, reference) -> float:
    """Largest absolute difference over the largest reference magnitude."""
    actual = np.asarray(actual, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if actual.shape != reference.shape:
        return float("inf")
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    return float(np.max(np.abs(actual - reference))) / scale


def parse_keypoints(path) -> tuple[np.ndarray, float, str]:
    """Frames (T, 17, 3), frame rate and subject id from a keypoint text file."""
    lines = [ln for ln in open(path).read().splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    subject_id, frame_rate, num_frames, num_joints = lines[0].split()
    values = np.array(" ".join(lines[1:]).split(), dtype=np.float64)
    frames = values.reshape(int(num_frames), int(num_joints), 3)
    return frames, float(frame_rate), subject_id


def write_keypoints(path, frames: np.ndarray, frame_rate: float, subject_id: str) -> None:
    """The keypoint text format: one header line, then one line of 51 reals per frame."""
    body = "\n".join(" ".join(repr(float(v)) for v in frame.ravel()) for frame in frames)
    with open(path, "w") as fh:
        fh.write(f"{subject_id} {frame_rate!r} {frames.shape[0]} {NUM_JOINTS}\n{body}\n")


def reference_windows(frames: np.ndarray, length: int, stride: int, min_confidence: float) -> np.ndarray:
    """Sliding windows with per-frame mid-hip subtraction and mean torso scaling."""
    out = []
    for start in range(0, frames.shape[0] - length + 1, stride):
        chunk = frames[start : start + length].copy()
        if chunk[:, :, 2].mean() < min_confidence:
            continue
        hip = 0.5 * (chunk[:, LEFT_HIP, :2] + chunk[:, RIGHT_HIP, :2])
        shoulder = 0.5 * (chunk[:, LEFT_SHOULDER, :2] + chunk[:, RIGHT_SHOULDER, :2])
        torso = np.hypot(*(shoulder - hip).T).mean()
        chunk[:, :, :2] = (chunk[:, :, :2] - hip[:, None, :]) / torso
        out.append(chunk)
    return np.stack(out) if out else np.zeros((0, length, NUM_JOINTS, 3))


def check_windows(windows: np.ndarray, reference: np.ndarray, tol: float = 1e-12):
    err = relative_error(windows, reference)
    return err <= tol, f"windows {tuple(np.shape(windows))}, relative error {err:.2e} (limit {tol:g})"


def check_rows(batched: np.ndarray, single_rows: np.ndarray, feature: np.ndarray, tol: float = 1e-9):
    """Batched embedding rows equal one-at-a-time rows; the feature is their mean."""
    row_err = relative_error(batched, single_rows)
    mean_err = relative_error(feature, np.mean(single_rows, axis=0))
    ok = row_err <= tol and mean_err <= tol
    return ok, f"rows relative error {row_err:.2e}, mean {mean_err:.2e} (limit {tol:g})"


def folded_logits(params, f_gait: np.ndarray, f_face: np.ndarray) -> np.ndarray:
    """sum_m (C_m[:, :d] + C_m[:, d] w_m^T) f_m + C_m[:, d] b_m + c_m."""
    total = np.zeros(2)
    for C, w, b, c, f in (
        (params.gait_class_w, params.gait_score_w, params.gait_score_b, params.gait_class_b, f_gait),
        (params.face_class_w, params.face_score_w, params.face_score_b, params.face_class_b, f_face),
    ):
        C = np.asarray(C, dtype=np.float64)
        folded = C[:, :-1] + np.outer(C[:, -1], w)
        total += folded @ f + C[:, -1] * b + c
    return total


def check_fused(logits: np.ndarray, reference: np.ndarray, tol: float = 1e-9):
    err = relative_error(logits, reference)
    return err <= tol, f"fused logits relative error {err:.2e} (limit {tol:g})"


def check_invariance(feature: np.ndarray, moved_feature: np.ndarray, tol: float = 1e-9):
    err = relative_error(moved_feature, feature)
    return err <= tol, f"gait feature after translate+scale, relative error {err:.2e} (limit {tol:g})"


def check_same_predictions(evaluated: dict, single: dict):
    diff = sorted(sid for sid in single if evaluated.get(sid) != single[sid])
    same = not diff and evaluated.keys() == single.keys()
    return same, f"{len(single)} subjects, {len(diff)} disagree" + (f" (first {diff[0]})" if diff else "")


def oracle_latent(pixels: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    """Closed-form inverse of pixels = sigmoid(M z): z = pinv(M) logit(pixels)."""
    p = np.clip(np.asarray(pixels, dtype=np.float64).ravel(), 1e-15, 1.0 - 1e-15)
    return pinv @ np.log(p / (1.0 - p))


def check_synthesized(images, directions: dict, strength: float, neutral_latent, pinv, tol: float = 1e-2):
    """Each synthesized face, inverted in closed form and moved back by
    strength x direction, lands on the neutral face's latent."""
    worst = 0.0
    for image, name in images:
        back = oracle_latent(image.pixels, pinv) - strength * directions[name].values
        worst = max(worst, float(np.linalg.norm(back - neutral_latent)))
    ok = worst <= tol and len(images) == len(directions)
    return ok, f"{len(images)} faces, worst latent distance {worst:.2e} (limit {tol:g})"


def load_direction_values(path) -> np.ndarray:
    return np.asarray(json.loads(open(path).read())["values"], dtype=np.float64)


def check_direction(fitted: np.ndarray, oracle: np.ndarray, floor: float = 0.95):
    cos = float(fitted @ oracle / (np.linalg.norm(fitted) * np.linalg.norm(oracle)))
    return cos >= floor, f"cosine with the oracle direction {cos:.4f} (floor {floor})"


def check_fold_plan(folds, subject_ids, used_folds, splits):
    """Folds are disjoint, cover every subject once, differ in size by at most
    one, and each used split is a disjoint cover as well."""
    flat = [sid for fold in folds for sid in fold]
    sizes = [len(f) for f in folds]
    ok = sorted(flat) == sorted(subject_ids) and len(set(flat)) == len(flat)
    ok = ok and max(sizes) - min(sizes) <= 1
    for i, (train, test) in zip(used_folds, splits):
        ok = ok and set(test) == set(folds[i]) and not set(train) & set(test)
        ok = ok and sorted(train + test) == sorted(subject_ids)
    return ok, f"{len(folds)} folds of sizes {sizes} over {len(subject_ids)} subjects"


def check_accuracy_floors(rows: dict, fusion_floor: float, unimodal_floor: float):
    """Per fold, fusion and the better unimodal row stay above floors that
    hold on a benchmark whose classes are separable by construction. Either
    unimodal row alone may collapse, and no row needs to be saturated."""
    fusion = rows["fusion"]["per_fold"]
    better = [max(rows["gait_only"]["per_fold"][i], rows["face_only"]["per_fold"][i]) for i in range(len(fusion))]
    ok = min(fusion) >= fusion_floor and min(better) >= unimodal_floor
    cells = ", ".join(f"{k} {[round(a, 4) for a in r['per_fold']]}" for k, r in rows.items())
    return ok, f"{cells}; floors: fusion {fusion_floor}, better unimodal row {unimodal_floor}"
