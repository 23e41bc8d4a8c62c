"""Versioned JSON persistence for instances and calibration records.

One table, `KINDS`, names each instance kind once: its type, its sampler, the
parameters the sampler reads, the derived values to re-check after sampling,
and the array an explicit record embeds.  Every instance record carries its
generation seed and regenerates bit-exactly through the sampler, so a body
built by hand, without a stream, cannot be saved.  An explicit record also
carries the array (shortest round-trip decimal), and loading checks that the
regenerated array equals it.  Every file embeds a checksum of its canonical
payload and a format version.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from typing import Callable

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


@dataclass(frozen=True)
class Kind:
    type: type
    sample: Callable            # (stream, *stored parameters) -> instance
    derived: dict[str, float]   # stored values the sampler recomputes -> re-check tolerance
    array: str                  # attribute path of the array an explicit record embeds

    @property
    def params(self) -> tuple[str, ...]:
        """The stored parameters: the names of the sampler's arguments after the stream."""
        return tuple(inspect.signature(self.sample).parameters)[1:]

    @property
    def array_key(self) -> str:
        return self.array.rpartition(".")[2]


KINDS = {
    "nazarov": Kind(
        nazarov.NazarovBody, lambda rng, n, N, r, c1: nazarov.sample_body(n, N, r, rng, c1=c1),
        {}, "normals",
    ),
    "adaptive": Kind(
        adaptive.AdaptiveInstance, lambda rng, n, N: adaptive.sample_adaptive_instance(n, N, rng),
        {"r": 1e-12}, "body.normals",
    ),
    "tolerant": Kind(
        tolerant.TolerantInstance,
        lambda rng, n, N, c0_hat: tolerant.sample_tolerant_instance(n, N, rng, c0_hat),
        {"c1": 1e-15, "c2": 1e-15, "tau": 1e-15}, "body.normals",
    ),
    "ptf": Kind(
        ptf.PTFInstance,
        lambda rng, n, l, clip_c, flavor, neg_atom, neg_prob: ptf.sample_ptf_instance(
            n, l, clip_c, flavor, rng, neg_atom, neg_prob
        ),
        {"mu": 1e-12}, "coeffs",
    ),
}
_KIND_OF_TYPE = {kind.type: name for name, kind in KINDS.items()}


def save_instance(inst, path: str, include_arrays: bool = False):
    """Write an instance file; seed-only unless include_arrays is set."""
    name = _KIND_OF_TYPE.get(type(inst))
    if name is None:
        raise FormatError(f"cannot serialize object of type {type(inst).__name__}")
    if inst.stream is None:
        raise FormatError(f"{name} instance has no generation seed; only sampled instances can be saved")
    kind = KINDS[name]
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": name,
        "seed": [inst.stream.seed, inst.stream.stream_id],
    }
    payload.update((key, getattr(inst, key)) for key in (*kind.params, *kind.derived))
    if include_arrays:
        payload[kind.array_key] = attrgetter(kind.array)(inst).tolist()
    _finish(payload, path)


def load_instance(path: str):
    """Rebuild an instance from its seed, then check the stored values."""
    payload = _load_payload(path)
    kind = KINDS.get(payload.get("kind"))
    if kind is None:
        raise FormatError(f"unknown instance kind {payload.get('kind')!r}")
    missing = [key for key in ("seed", *kind.params, *kind.derived) if key not in payload]
    if missing:
        raise FormatError(f"{payload['kind']} record lacks {missing}")
    inst = kind.sample(RngStream(*payload["seed"]), *(payload[key] for key in kind.params))
    for key, tol in kind.derived.items():
        if abs(getattr(inst, key) - payload[key]) > tol:
            raise FormatError(f"regenerated {key} differs from the stored one")
    stored = payload.get(kind.array_key)
    if stored is not None and not np.array_equal(np.array(stored), attrgetter(kind.array)(inst)):
        raise FormatError(f"regenerated {kind.array_key} differ from the stored arrays")
    return inst


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
    values = {}
    for f in fields(tolerant.CalibrationRecord):
        value = values[f.name] = payload.get(f.name)
        if f.name in ("n", "N", "produced_by_seed"):
            ok, kind = isinstance(value, int), "an integer"
        else:  # c1, v_u_mean, v_u_ci
            ok = isinstance(value, (int, float)) and math.isfinite(value)
            kind = "a finite number"
        if not ok or isinstance(value, bool):
            raise FormatError(f"calibration field {f.name!r} in {path} must be {kind}, got {value!r}")
    if values["c1"] <= 0:
        raise FormatError(f"calibration field 'c1' in {path} must be positive, got {values['c1']!r}")
    return tolerant.CalibrationRecord(**values)
