"""Versioned JSON persistence for instances and calibration records.

Seed-only records regenerate instances bit-exactly through the original
samplers; explicit-array records carry the raw numbers (shortest round-trip
decimal, so loading reproduces the exact doubles).  Every file embeds a
checksum of its canonical payload and a format version.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict

import numpy as np

from . import adaptive, nazarov, ptf, tolerant
from .errors import FormatError
from .rng import RngStream

FORMAT_VERSION = 1


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _checksum(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _finish(payload: dict, path: str):
    payload["checksum"] = _checksum(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _load_payload(path: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot parse instance file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise FormatError(f"{path} is not an instance file")
    if payload["format_version"] != FORMAT_VERSION:
        raise FormatError(
            f"format version {payload['format_version']} unsupported (expected {FORMAT_VERSION})"
        )
    stated = payload.pop("checksum", None)
    if stated is None or stated != _checksum(payload):
        raise FormatError(f"checksum mismatch in {path}")
    return payload


def _floats(array: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(array)]


def save_instance(inst, path: str, include_arrays: bool = False):
    """Write an instance file; seed-only unless include_arrays is set."""
    if isinstance(inst, nazarov.NazarovBody):
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": "nazarov",
            "n": inst.n,
            "N": inst.N,
            "r": inst.r,
            "c1": inst.c1,
        }
        if inst.stream is not None:
            payload["seed"] = [inst.stream.seed, inst.stream.stream_id]
        if include_arrays:
            payload["normals"] = _floats(inst.normals)
        if "seed" not in payload and "normals" not in payload:
            raise FormatError("body has no generation seed; save it with include_arrays=True")
    elif isinstance(inst, adaptive.AdaptiveInstance):
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": "adaptive",
            "n": inst.n,
            "N": inst.N,
            "r": inst.r,
            "seed": [inst.stream.seed, inst.stream.stream_id],
        }
        if include_arrays:
            payload["normals"] = _floats(inst.body.normals)
    elif isinstance(inst, tolerant.TolerantInstance):
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": "tolerant",
            "n": inst.n,
            "N": inst.N,
            "seed": [inst.stream.seed, inst.stream.stream_id],
            "c0_hat": inst.c0_hat,
            "c1": inst.c1,
            "c2": inst.c2,
            "tau": inst.tau,
        }
        if include_arrays:
            payload["normals"] = _floats(inst.body.normals)
    elif isinstance(inst, ptf.PTFInstance):
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": "ptf",
            "n": inst.n,
            "l": inst.l,
            "mu": inst.mu,
            "clip_c": inst.clip_c,
            "flavor": inst.flavor,
            "seed": [inst.stream.seed, inst.stream.stream_id],
            "neg_atom": inst.neg_atom,
            "neg_prob": inst.neg_prob,
        }
        if include_arrays:
            payload["coeffs"] = [float(v) for v in inst.coeffs]
    else:
        raise FormatError(f"cannot serialize object of type {type(inst).__name__}")
    _finish(payload, path)


def load_instance(path: str):
    """Rebuild an instance from a file; seed records regenerate bit-exactly."""
    payload = _load_payload(path)
    kind = payload.get("kind")
    if kind == "nazarov":
        if "seed" in payload:
            stream = RngStream(*payload["seed"])
            body = nazarov.sample_body(
                payload["n"], payload["N"], payload["r"], stream, c1=payload.get("c1")
            )
            _check_stored_normals(payload, body.normals)
            return body
        normals = payload.get("normals")
        if normals is None:
            raise FormatError("nazarov record lacks both seed and explicit normals")
        return nazarov.NazarovBody(
            n=payload["n"],
            N=payload["N"],
            r=payload["r"],
            normals=np.array(normals),
            c1=payload.get("c1"),
        )
    if kind == "adaptive":
        stream = RngStream(*payload["seed"])
        inst = adaptive.sample_adaptive_instance(payload["n"], payload["N"], stream)
        if abs(inst.r - payload["r"]) > 1e-12:
            raise FormatError("regenerated threshold differs from the stored one")
        _check_stored_normals(payload, inst.body.normals)
        return inst
    if kind == "tolerant":
        stream = RngStream(*payload["seed"])
        inst = tolerant.sample_tolerant_instance(
            payload["n"], payload["N"], stream, float(payload["c0_hat"])
        )
        for field in ("c2", "tau"):
            if abs(getattr(inst, field) - payload[field]) > 1e-15:
                raise FormatError(f"regenerated {field} differs from the stored one")
        _check_stored_normals(payload, inst.body.normals)
        return inst
    if kind == "ptf":
        stream = RngStream(*payload["seed"])
        inst = ptf.sample_ptf_instance(
            payload["n"],
            payload["l"],
            payload["clip_c"],
            payload["flavor"],
            stream,
            payload["neg_atom"],
            payload["neg_prob"],
        )
        if abs(inst.mu - payload["mu"]) > 1e-12:
            raise FormatError("regenerated threshold differs from the stored one")
        stored = payload.get("coeffs")
        if stored is not None and not np.array_equal(np.array(stored), inst.coeffs):
            raise FormatError("regenerated coefficients differ from the stored arrays")
        return inst
    raise FormatError(f"unknown instance kind {kind!r}")


def _check_stored_normals(payload: dict, normals: np.ndarray):
    stored = payload.get("normals")
    if stored is not None and not np.array_equal(np.array(stored), normals):
        raise FormatError("regenerated normals differ from the stored arrays")


def save_calibration(record: tolerant.CalibrationRecord, path: str):
    payload = {"format_version": FORMAT_VERSION, "kind": "calibration"}
    payload.update(asdict(record))
    _finish(payload, path)


def load_calibration(path: str) -> tolerant.CalibrationRecord:
    if not os.path.exists(path):
        raise FormatError(f"calibration file {path} does not exist")
    payload = _load_payload(path)
    if payload.get("kind") != "calibration":
        raise FormatError(f"{path} is not a calibration record")
    return tolerant.CalibrationRecord(
        n=payload["n"],
        N=payload["N"],
        c1=payload["c1"],
        v_u_mean=payload["v_u_mean"],
        v_u_ci=payload["v_u_ci"],
        produced_by_seed=payload["produced_by_seed"],
    )
