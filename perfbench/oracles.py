"""Output checks that do not call the code they check.

The file readers below parse the QSFM, QSCK and manifest formats from
their byte layout as the qsumm README documents it; the generator
forward is recomputed with plain numpy; matchings are checked against
`scipy.optimize.linear_sum_assignment`, used only here, as the oracle.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

_QSFM_HEAD = struct.Struct("<4sIQQ")
_QSFM_DTYPES = {1: "<f4", 2: "<f8"}
_QSCK_HEAD = struct.Struct("<4sII")


def qsfm_array(buf: bytes) -> np.ndarray:
    magic, version, rows, cols = _QSFM_HEAD.unpack_from(buf)
    if magic != b"QSFM" or version not in _QSFM_DTYPES:
        raise ValueError(f"not a QSFM matrix: {magic!r} v{version}")
    arr = np.frombuffer(buf, dtype=_QSFM_DTYPES[version], offset=_QSFM_HEAD.size)
    return arr.reshape(rows, cols).astype(np.float64)


def read_qsfm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return qsfm_array(fh.read())


def read_checkpoint(path, prefixes) -> dict:
    """Sections of a QSCK file whose names start with one of `prefixes`.

    Other sections are skipped with a seek, so reading the generator of
    a paper-scale checkpoint does not read its critic or optimizer state.
    """
    out = {}
    with open(path, "rb") as fh:
        magic, _, n = _QSCK_HEAD.unpack(fh.read(_QSCK_HEAD.size))
        if magic != b"QSCK":
            raise ValueError(f"{path}: not a QSCK checkpoint")
        for _ in range(n):
            (name_len,) = struct.unpack("<I", fh.read(4))
            name = fh.read(name_len).decode("utf-8")
            (size,) = struct.unpack("<Q", fh.read(8))
            if name.startswith(tuple(prefixes)):
                out[name] = fh.read(size)
            else:
                fh.seek(size, os.SEEK_CUR)
    return out


def checkpoint_tensors(path, prefix) -> dict:
    """`{key: array}` for the QSFM sections `prefix + key` of a checkpoint."""
    return {name[len(prefix):]: qsfm_array(buf)
            for name, buf in read_checkpoint(path, [prefix]).items()}


def read_manifest(corpus_dir) -> dict:
    with open(os.path.join(corpus_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- generator forward in eval mode ------------------------------------

def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _norm(h, gamma, beta):
    """Normalisation by the sequence's own mean and biased variance."""
    return gamma * (h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + 1e-5) + beta


def _lstm(x, wx, wh, b):
    H = wh.shape[0]
    pre = x @ wx + b
    h, c = np.zeros(H), np.zeros(H)
    out = np.empty((x.shape[0], H))
    for t in range(x.shape[0]):
        z = pre[t] + h @ wh
        i, f = _sigmoid(z[:H]), _sigmoid(z[H:2 * H])
        g, o = np.tanh(z[2 * H:3 * H]), _sigmoid(z[3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def generator_scores(ckpt_path, corpus_dir, video_index: int, query_index: int) -> np.ndarray:
    """Per-shot scores of the eval-mode generator, recomputed from the files."""
    p = {k: (v.ravel() if v.shape[0] == 1 else v)
         for k, v in checkpoint_tensors(ckpt_path, "gparam/").items()}
    manifest = read_manifest(corpus_dir)
    video = manifest["videos"][video_index]
    query = video["queries"][query_index]
    frame = read_qsfm(os.path.join(corpus_dir, video["frame_feat"]))
    shot = read_qsfm(os.path.join(corpus_dir, video["shot_feat"]))
    concepts = read_qsfm(os.path.join(corpus_dir, manifest["concepts"]["path"]))
    if query["scenario"] == "none-present":
        q = np.zeros(concepts.shape[1])
    else:
        q = concepts[query["concept_a"]] + concepts[query["concept_b"]]

    visual = np.maximum(np.hstack([frame, shot]) @ p["fuse_w"] + p["fuse_b"], 0.0)
    q_enc = np.maximum(q @ p["query_w"] + p["query_b"], 0.0)
    x = np.hstack([visual, np.tile(q_enc, (visual.shape[0], 1))])
    h_f = _lstm(x, p["enc_fwd_wx"], p["enc_fwd_wh"], p["enc_fwd_b"])
    h_b = _lstm(x[::-1], p["enc_bwd_wx"], p["enc_bwd_wh"], p["enc_bwd_b"])[::-1]
    enc = np.maximum(_norm(np.hstack([h_f, h_b]), p["enc_bn_gamma"], p["enc_bn_beta"]), 0.0)
    hid = np.maximum(_norm(enc @ p["pred_w1"] + p["pred_b1"],
                           p["pred_bn_gamma"], p["pred_bn_beta"]), 0.0)
    return _sigmoid((hid @ p["pred_w2"] + p["pred_b2"]).ravel())


# --- matching ----------------------------------------------------------

def iou_matrix(annotations, rows, cols) -> np.ndarray:
    """Concept-set IoU between the shots in `rows` and those in `cols`."""
    out = np.zeros((len(rows), len(cols)))
    sets = [set(a) for a in annotations]
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            union = len(sets[i] | sets[j])
            out[a, b] = len(sets[i] & sets[j]) / union if union else 0.0
    return out


def optimal_weight(w: np.ndarray) -> float:
    from scipy.optimize import linear_sum_assignment

    if w.size == 0:
        return 0.0
    r, c = linear_sum_assignment(w, maximize=True)
    return float(w[r, c].sum())


def prf(matched: int, n_gen: int, n_gt: int):
    p = matched / n_gen if n_gen else 0.0
    r = matched / n_gt if n_gt else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def all_shots_f1(manifest: dict, split: str) -> float:
    """Mean F1 of selecting every shot of every video of a split.

    Every ground-truth shot carries a queried concept, so it can match
    itself at IoU 1: the maximum-weight matching covers all n_gt truth
    shots, and per query P = n_gt / T, R = 1.  Averaged per video over
    queries with nonempty truth, then over videos, as `evaluate` does.
    """
    videos = {v["id"]: v for v in manifest["videos"]}
    per_video = []
    for vid in manifest["splits"][split]:
        v = videos[vid]
        f1s = [prf(sum(q["gt_mask"]), v["n_shots"], sum(q["gt_mask"]))[2]
               for q in v["queries"] if sum(q["gt_mask"])]
        per_video.append(sum(f1s) / len(f1s))
    return sum(per_video) / len(per_video)


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)
