"""Tests for estimator persistence (save / load round-trips)."""

import numpy as np
import pytest

from repro.estimators.learned import DeepDbEstimator, NaruEstimator
from repro.estimators.traditional import PostgresEstimator
from repro.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    atomic_write_bytes,
    load_bundle,
    load_estimator,
    load_info,
    save_bundle,
    save_estimator,
)


class TestRoundTrip:
    def test_postgres_round_trip(self, small_synthetic, tmp_path, rng):
        from repro.core import generate_workload

        est = PostgresEstimator().fit(small_synthetic)
        path = tmp_path / "pg.repro"
        info = save_estimator(est, path)
        assert info.estimator_name == "postgres"
        assert info.num_rows == small_synthetic.num_rows

        loaded = load_estimator(path)
        test = generate_workload(small_synthetic, 30, rng)
        np.testing.assert_allclose(
            loaded.estimate_many(list(test.queries)),
            est.estimate_many(list(test.queries)),
        )

    def test_naru_round_trip(self, small_synthetic, tmp_path):
        from repro.core import Predicate, Query

        est = NaruEstimator(
            epochs=2, num_samples=32, inference_seed=3
        ).fit(small_synthetic)
        path = tmp_path / "naru.repro"
        save_estimator(est, path)
        loaded = load_estimator(path)
        q = Query((Predicate(0, 0.0, 50.0),))
        # With a pinned inference seed the reloaded model must agree.
        assert loaded.estimate(q) == pytest.approx(est.estimate(q))

    def test_quantized_naru_round_trip(self, small_synthetic, tmp_path):
        from repro.core import Predicate, Query

        est = NaruEstimator(
            epochs=2, num_samples=32, inference_seed=3, quantize="int8"
        ).fit(small_synthetic)
        path = tmp_path / "naru-int8.repro"
        save_estimator(est, path)
        loaded = load_estimator(path)
        q = Query((Predicate(0, 0.0, 50.0),))
        assert loaded.estimate(q) == pytest.approx(est.estimate(q))
        # Packed-weight size survives the round-trip, and the loaded
        # model is still inference-only.
        assert loaded.model_size_bytes() == est.model_size_bytes()
        with pytest.raises(RuntimeError, match="quantized"):
            loaded.train_epochs(small_synthetic, 1)

    def test_deepdb_round_trip(self, small_synthetic, tmp_path):
        from repro.core import Predicate, Query

        est = DeepDbEstimator().fit(small_synthetic)
        path = tmp_path / "spn.repro"
        save_estimator(est, path)
        loaded = load_estimator(path)
        q = Query((Predicate(0, 10.0, 60.0), Predicate(1, 10.0, 60.0)))
        assert loaded.estimate(q) == pytest.approx(est.estimate(q))

    def test_metadata_readable_without_loading(self, small_synthetic, tmp_path):
        est = PostgresEstimator().fit(small_synthetic)
        path = tmp_path / "pg.repro"
        save_estimator(est, path)
        info = load_info(path)
        assert info.format_version == FORMAT_VERSION
        assert info.estimator_class == "PostgresEstimator"


class TestFailureModes:
    def test_unfitted_estimator_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="fitted"):
            save_estimator(PostgresEstimator(), tmp_path / "x.repro")

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.repro"
        path.write_bytes(b"not an artifact")
        with pytest.raises(PersistenceError, match="not a repro"):
            load_estimator(path)

    def test_truncated_artifact_rejected(self, small_synthetic, tmp_path):
        est = PostgresEstimator().fit(small_synthetic)
        path = tmp_path / "pg.repro"
        save_estimator(est, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(PersistenceError):
            load_estimator(path)

    def test_truncated_payload_fails_checksum(self, small_synthetic, tmp_path):
        est = PostgresEstimator().fit(small_synthetic)
        path = tmp_path / "pg.repro"
        save_estimator(est, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(PersistenceError, match="checksum"):
            load_estimator(path)

    def test_bit_flip_fails_checksum(self, small_synthetic, tmp_path):
        est = PostgresEstimator().fit(small_synthetic)
        path = tmp_path / "pg.repro"
        save_estimator(est, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # corrupt one payload byte
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError, match="checksum"):
            load_estimator(path)

    def test_version_mismatch_rejected(self, small_synthetic, tmp_path, monkeypatch):
        est = PostgresEstimator().fit(small_synthetic)
        path = tmp_path / "pg.repro"
        import repro.persistence as persistence

        monkeypatch.setattr(persistence, "FORMAT_VERSION", 999)
        save_estimator(est, path)
        monkeypatch.undo()
        with pytest.raises(PersistenceError, match="format"):
            load_estimator(path)


def write_container(path, bundle: dict) -> None:
    """Frame ``bundle`` the way the library does (magic + SHA-256 +
    pickle), so only its format, not its integrity, can be wrong."""
    import hashlib
    import pickle

    from repro.persistence import _MAGIC

    payload = pickle.dumps(bundle)
    path.write_bytes(_MAGIC + hashlib.sha256(payload).digest() + payload)


class TestOldFormats:
    """Only the current format loads; a format-2 artifact (its pickle
    inline, under ``payload`` / ``estimator``) is refused by name."""

    def test_format_2_bundle_rejected(self, tmp_path):
        path = tmp_path / "old.repro"
        write_container(
            path, {"kind": "unit-test", "format_version": 2, "payload": {"x": 1}}
        )
        with pytest.raises(PersistenceError, match="written with format 2"):
            load_bundle(path, kind="unit-test")

    def test_format_2_estimator_rejected(self, small_synthetic, tmp_path):
        from repro.persistence import ArtifactInfo

        est = PostgresEstimator().fit(small_synthetic)
        info = ArtifactInfo(
            format_version=2,
            estimator_name=est.name,
            estimator_class=type(est).__qualname__,
            table_name=small_synthetic.name,
            num_rows=small_synthetic.num_rows,
        )
        path = tmp_path / "old.repro"
        write_container(path, {"info": info, "estimator": est})
        with pytest.raises(PersistenceError, match="written with format 2"):
            load_estimator(path)
        with pytest.raises(PersistenceError, match="written with format 2"):
            load_info(path)


class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"

    def test_failed_write_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"original")

        import repro.persistence as persistence

        def exploding_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(persistence.os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write_bytes(path, b"replacement")
        # A crash mid-write must not tear the destination...
        assert path.read_bytes() == b"original"
        # ...and must not leave a temp file behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_save_estimator_is_atomic_over_existing(
        self, small_synthetic, tmp_path, monkeypatch
    ):
        est = PostgresEstimator().fit(small_synthetic)
        path = tmp_path / "pg.repro"
        save_estimator(est, path)
        good = path.read_bytes()

        import repro.persistence as persistence

        monkeypatch.setattr(
            persistence,
            "atomic_write_bytes",
            lambda p, d: (_ for _ in ()).throw(OSError("torn")),
        )
        with pytest.raises(OSError):
            save_estimator(est, path)
        assert path.read_bytes() == good
        load_estimator(path)  # still a valid artifact


class TestBundles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.repro"
        save_bundle({"x": np.arange(3.0)}, path, kind="unit-test")
        payload = load_bundle(path, kind="unit-test")
        np.testing.assert_array_equal(payload["x"], np.arange(3.0))

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "state.repro"
        save_bundle({"x": 1}, path, kind="training-checkpoint")
        with pytest.raises(PersistenceError, match="kind"):
            load_bundle(path, kind="estimator")

    def test_truncated_bundle_fails_checksum(self, tmp_path):
        path = tmp_path / "state.repro"
        save_bundle({"x": list(range(1000))}, path, kind="unit-test")
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(PersistenceError):
            load_bundle(path, kind="unit-test")


class TestFloat32RoundTrip:
    """A float32 model must come back float32 — never upcast on load."""

    def test_save_load_preserves_dtype_and_estimates(
        self, small_synthetic, tmp_path, rng
    ):
        from repro.core import generate_workload
        from repro.estimators.learned import LwNnEstimator

        train = generate_workload(small_synthetic, 80, rng)
        est = LwNnEstimator(epochs=3, hidden_units=(16,), dtype="float32")
        est.fit(small_synthetic, train)
        path = tmp_path / "lwnn32.repro"
        save_estimator(est, path)

        loaded = load_estimator(path)
        assert loaded.dtype == "float32"
        assert all(
            p.value.dtype == np.float32 for p in loaded._model.parameters()
        )
        test = generate_workload(small_synthetic, 30, rng)
        np.testing.assert_array_equal(
            loaded.estimate_many(list(test.queries)),
            est.estimate_many(list(test.queries)),
        )

    def test_training_state_restore_keeps_float32(self, small_synthetic, rng):
        from repro.core import generate_workload
        from repro.estimators.learned import LwNnEstimator

        train = generate_workload(small_synthetic, 80, rng)
        est = LwNnEstimator(epochs=4, hidden_units=(16,), dtype="float32")
        est.begin_training(small_synthetic, train)
        est.train_epochs(train, 2)
        state = est.training_state()

        resumed = LwNnEstimator(epochs=4, hidden_units=(16,), dtype="float32")
        resumed.restore_training(small_synthetic, train, state)
        assert all(
            p.value.dtype == np.float32 for p in resumed._model.parameters()
        )
        assert all(m.dtype == np.float32 for m in resumed._optimizer._m)

        # The resumed run must continue step-for-step with the original.
        est.train_epochs(train, 2)
        resumed.train_epochs(train, 2)
        for p_a, p_b in zip(
            est._model.parameters(), resumed._model.parameters()
        ):
            np.testing.assert_array_equal(p_a.value, p_b.value)
