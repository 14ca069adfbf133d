"""The public surface: ``__all__`` stays resolvable and complete."""

from __future__ import annotations

import importlib
import re
import sys
import warnings
from pathlib import Path

import pytest

import repro
import repro.serve as serve
import repro.storage as storage


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_serving_surface_exported(self):
        # The operable-daemon surface is part of the package API.
        for name in (
            "ServeDaemon", "DaemonClient", "DaemonConfig", "RetryPolicy",
            "ServingWatchdog", "WatchdogConfig",
            "LiveFireConfig", "LiveFireHarness",
            "ServeError", "BackpressureError", "DeadlineExceededError",
            "ServerUnavailableError", "ShuttingDownError",
            "ServerFailedError", "BadRequestError",
            "SystemHealth", "DegradedModeError",
        ):
            assert name in repro.__all__, name

    def test_sharding_surface_exported(self):
        # The sharded-serving surface is part of the package API; a
        # ShardedSystem is served by the one ServeDaemon, and the old
        # second daemon and its config are gone without an alias.
        for name in (
            "ShardRouter", "ShardedSystem", "CrossShardError", "FenceAudit",
            "ServeDaemon", "DaemonConfig",
            "ShardLiveFireConfig", "ShardLiveFireHarness",
        ):
            assert name in repro.__all__, name
        for module in (repro, serve):
            for name in ("ShardedServeDaemon", "ShardedDaemonConfig"):
                assert name not in module.__all__, name
                assert not hasattr(module, name), name

    def test_version_is_pep440ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_package_metadata_matches_version(self):
        # One source: pyproject declares the version dynamic, read from
        # repro.__version__, so an install stamps the same number.
        import importlib.metadata

        try:
            installed = importlib.metadata.version("repro")
        except importlib.metadata.PackageNotFoundError:
            installed = None  # run from a source tree (PYTHONPATH=src)
        if installed is not None:
            assert installed == repro.__version__
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "support is in beta"
            config = pyprojecttoml.read_configuration(str(pyproject))
        assert "version" in config["project"]["dynamic"]
        assert config["project"]["version"] == repro.__version__

    def test_storage_surface_exported(self):
        # The pluggable-backend surface (PR 8) is part of the package
        # API: the backends, their fault-injecting variants, and the
        # registry/factory that selects among them.
        for name in (
            "StableStore", "FileStableStore", "LogStructuredStableStore",
            "FaultyStore", "FaultyFileStore", "FaultyLogStructuredStore",
            "LogStructuredInstall", "StoreBackend", "make_store",
            "store_backends", "register_store_backend",
            "recommended_cache_config",
        ):
            assert name in repro.__all__, name

    def test_replication_surface_exported(self):
        # The primary/witness surface (PR 9): the epoch sidecar, the
        # sender/witness pair, and the torture v5 harness.
        for name in (
            "EpochStore", "FencedError", "ReplicationConfig",
            "ReplicationSender", "WitnessConfig", "WitnessDaemon",
            "ReplicaLiveFireConfig", "ReplicaLiveFireHarness",
        ):
            assert name in repro.__all__, name


class TestStorageModule:
    def test_all_names_resolve(self):
        for name in storage.__all__:
            assert getattr(storage, name, None) is not None, name

    def test_builtin_backends_registered(self):
        assert storage.store_backends() == ["file", "logstore", "memory"]


class TestDeprecatedPaths:
    """Removed import paths stay removed and have no internal callers."""

    def test_no_internal_callers(self):
        # The repro.persist.file_store / repro.persist.faulty shims were
        # removed in 3.0.0: the old paths no longer import, and nothing
        # inside the package may still name them.
        for module in ("repro.persist.file_store", "repro.persist.faulty"):
            sys.modules.pop(module, None)
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        package_root = Path(repro.__file__).parent
        deprecated = re.compile(
            r"^\s*(from|import)\s+repro\.persist\.(faulty|file_store)\b"
        )
        offenders = []
        for path in package_root.rglob("*.py"):
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if deprecated.search(line):
                    offenders.append(f"{path}:{lineno}: {line.strip()}")
        assert not offenders, "\n".join(offenders)


class TestServeModule:
    def test_all_names_resolve(self):
        for name in serve.__all__:
            assert getattr(serve, name, None) is not None, name

    def test_errors_all_carry_codes(self):
        from repro.serve import errors
        from repro.serve.protocol import ERROR_CODES

        for name in serve.__all__:
            obj = getattr(serve, name)
            if isinstance(obj, type) and issubclass(obj, errors.ServeError):
                assert obj.code in ERROR_CODES, name
