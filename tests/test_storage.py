import json
from pathlib import Path

import numpy as np
import pytest

from convexlab import adaptive, nazarov, ptf, tolerant
from convexlab.errors import FormatError
from convexlab.rng import RngStream
from convexlab.storage import (
    KINDS,
    _checksum,
    load_calibration,
    load_instance,
    save_calibration,
    save_instance,
)
from convexlab.tolerant import CalibrationRecord


def _probe_labels(oracle, count=1000):
    pts = RngStream(999).generator().standard_normal((count, oracle.ambient_dim))
    return oracle.labels(pts)


class TestRoundTrips:
    def test_adaptive_seed_only(self, tmp_path):
        inst = adaptive.sample_adaptive_instance(16, None, RngStream(701))
        path = tmp_path / "adaptive.json"
        save_instance(inst, str(path))
        loaded = load_instance(str(path))
        np.testing.assert_array_equal(_probe_labels(inst), _probe_labels(loaded))
        np.testing.assert_array_equal(inst.body.normals, loaded.body.normals)

    def test_tolerant_seed_only(self, tmp_path, calibration_small):
        inst = tolerant.sample_tolerant_instance(64, None, RngStream(702), calibration_small)
        path = tmp_path / "tolerant.json"
        save_instance(inst, str(path))
        loaded = load_instance(str(path))
        assert loaded.c2 == inst.c2 and loaded.tau == inst.tau
        np.testing.assert_array_equal(_probe_labels(inst.yes), _probe_labels(loaded.yes))
        np.testing.assert_array_equal(_probe_labels(inst.no), _probe_labels(loaded.no))

    def test_ptf_seed_only(self, tmp_path):
        inst = ptf.sample_ptf_instance(32, 3, ptf.DEFAULT_CLIP, "no", RngStream(703))
        path = tmp_path / "ptf.json"
        save_instance(inst, str(path))
        loaded = load_instance(str(path))
        np.testing.assert_array_equal(inst.coeffs, loaded.coeffs)
        np.testing.assert_array_equal(_probe_labels(inst), _probe_labels(loaded))

    def test_nazarov_seed_vs_explicit_cross_serialization(self, tmp_path):
        n, num = 16, 32
        body = nazarov.sample_body(n, num, nazarov.solve_r(n, num, 0.01), RngStream(704), c1=0.01)
        seed_path = tmp_path / "body_seed.json"
        full_path = tmp_path / "body_full.json"
        save_instance(body, str(seed_path))
        save_instance(body, str(full_path), include_arrays=True)
        from_seed = load_instance(str(seed_path))
        from_arrays = load_instance(str(full_path))
        np.testing.assert_array_equal(from_seed.normals, from_arrays.normals)
        np.testing.assert_array_equal(_probe_labels(from_seed), _probe_labels(from_arrays))

    def test_explicit_arrays_round_trip_exactly(self, tmp_path):
        inst = adaptive.sample_adaptive_instance(16, None, RngStream(705))
        path = tmp_path / "adaptive_full.json"
        save_instance(inst, str(path), include_arrays=True)
        loaded = load_instance(str(path))
        np.testing.assert_array_equal(inst.body.normals, loaded.body.normals)


# Instance files written by an earlier release of this module: every kind at
# n=8, seed-only and explicit (`lab make-instance --n 8 --seed 11`, tolerant
# with --c0-hat 0.35), plus a nazarov body with c1=None (seed 12) and a PTF
# yes-instance at l=5 (seed 13).
DATA = Path(__file__).parent / "data"
RECORDED = sorted(path.name for path in DATA.glob("*.json"))


class TestRecordedFiles:
    def test_every_kind_recorded_both_ways(self):
        seen = set()
        for name in RECORDED:
            payload = json.loads((DATA / name).read_text())
            seen.add((payload["kind"], KINDS[payload["kind"]].array_key in payload))
        assert seen == {(kind, explicit) for kind in KINDS for explicit in (False, True)}

    @pytest.mark.parametrize("name", RECORDED)
    def test_load_and_resave(self, tmp_path, name):
        stored = json.loads((DATA / name).read_text())
        kind = KINDS[stored["kind"]]
        inst = load_instance(str(DATA / name))
        path = tmp_path / name
        save_instance(inst, str(path), include_arrays=kind.array_key in stored)
        resaved = json.loads(path.read_text())
        # The checksum covers the derived floats, which may move within their
        # load tolerances under another libm or LAPACK.
        for payload in (stored, resaved):
            del payload["checksum"]
        for key, tol in kind.derived.items():
            assert abs(resaved.pop(key) - stored.pop(key)) <= tol
        assert resaved == stored

    @pytest.mark.parametrize(
        "name, key",
        [
            ("adaptive-seed.json", "r"),
            ("tolerant-seed.json", "c2"),
            ("tolerant-seed.json", "tau"),
            ("ptf-seed.json", "mu"),
        ],
    )
    def test_changed_derived_value_rejected(self, tmp_path, name, key):
        payload = json.loads((DATA / name).read_text())
        payload[key] += 1e-9
        self._rewrite(payload, tmp_path / name)
        with pytest.raises(FormatError, match=f"regenerated {key}"):
            load_instance(str(tmp_path / name))

    @pytest.mark.parametrize("name", [n for n in RECORDED if n.endswith("-explicit.json")])
    def test_changed_array_rejected(self, tmp_path, name):
        payload = json.loads((DATA / name).read_text())
        key = KINDS[payload["kind"]].array_key
        array = np.array(payload[key])
        array.flat[0] += 1e-12
        payload[key] = array.tolist()
        self._rewrite(payload, tmp_path / name)
        with pytest.raises(FormatError, match=f"regenerated {key}"):
            load_instance(str(tmp_path / name))

    @staticmethod
    def _rewrite(payload: dict, path):
        del payload["checksum"]
        payload["checksum"] = _checksum(payload)
        path.write_text(json.dumps(payload))


class TestErrors:
    def test_seedless_body_rejected(self, tmp_path):
        body = nazarov.NazarovBody(n=2, N=1, r=1.0, normals=np.ones((1, 2)))
        path = tmp_path / "seedless.json"
        with pytest.raises(FormatError, match="seed"):
            save_instance(body, str(path), include_arrays=True)
        assert not path.exists()

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "frame.json"
        with pytest.raises(FormatError, match="cannot serialize"):
            save_instance(RngStream(1), str(path))
        assert not path.exists()

    def test_record_without_seed_rejected(self, tmp_path):
        payload = json.loads((DATA / "nazarov-explicit.json").read_text())
        del payload["seed"]
        TestRecordedFiles._rewrite(payload, tmp_path / "no-seed.json")
        with pytest.raises(FormatError, match="seed"):
            load_instance(str(tmp_path / "no-seed.json"))

    def test_truncated_file(self, tmp_path):
        inst = adaptive.sample_adaptive_instance(16, None, RngStream(706))
        path = tmp_path / "trunc.json"
        save_instance(inst, str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(FormatError):
            load_instance(str(path))

    def test_checksum_failure(self, tmp_path):
        inst = ptf.sample_ptf_instance(8, 3, ptf.DEFAULT_CLIP, "yes", RngStream(707))
        path = tmp_path / "tampered.json"
        save_instance(inst, str(path))
        payload = json.loads(path.read_text())
        payload["mu"] = payload["mu"] + 1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            load_instance(str(path))

    def test_version_mismatch(self, tmp_path):
        inst = ptf.sample_ptf_instance(8, 3, ptf.DEFAULT_CLIP, "yes", RngStream(708))
        path = tmp_path / "version.json"
        save_instance(inst, str(path))
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            load_instance(str(path))

    def test_not_an_instance_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FormatError):
            load_instance(str(path))


class TestCalibration:
    def test_round_trip(self, tmp_path):
        record = CalibrationRecord(
            n=64, N=256, c1=0.01, v_u_mean=0.002, v_u_ci=1e-4, produced_by_seed=7
        )
        path = tmp_path / "calibration.json"
        save_calibration(record, str(path))
        loaded = load_calibration(str(path))
        assert loaded == record

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_calibration(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize(
        "key, value", [("v_u_mean", "0.002"), ("v_u_mean", None), ("c1", True)]
    )
    def test_field_of_wrong_type_rejected(self, tmp_path, capsys, key, value):
        from convexlab.cli import main

        path = tmp_path / "calibration.json"
        save_calibration(CalibrationRecord(16, 32, 0.01, 0.002, 1e-4, 7), str(path))
        payload = json.loads(path.read_text())
        del payload["checksum"]
        payload[key] = value
        payload["checksum"] = _checksum(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=repr(key)):
            load_calibration(str(path))
        args = ["run", "eps-gap", "--seed", "1", "--n", "16", "--N", "32", "--trials", "10"]
        assert main([*args, "--calibration", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
