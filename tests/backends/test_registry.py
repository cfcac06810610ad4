"""Backend registry: probes, selection precedence, failure modes."""

import warnings

import numpy as np
import pytest

import repro
from repro.backends import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    BackendProbe,
    KernelBackend,
    NumpyBackend,
    available_backend_names,
    backend_names,
    current_backend_name,
    get_backend,
    probe_backends,
    register_backend,
    set_backend,
    use_backend,
)
from repro.backends import base as backends_base
from repro.errors import BackendUnavailableError, InvalidParameterError


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Each test starts from the default selection and a clean env."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    previous = backends_base._STATE.active
    set_backend(None)
    backends_base._STATE.env_seen = None
    backends_base._STATE.env_resolved = None
    yield
    backends_base._STATE.active = previous
    backends_base._STATE.env_seen = None
    backends_base._STATE.env_resolved = None


class TestRegistry:
    def test_registered_names(self):
        names = backend_names()
        assert names[0] == DEFAULT_BACKEND
        assert set(names) >= {"numpy", "numba"}
        assert names[1:] == sorted(names[1:])

    def test_probes_cover_registry(self):
        probes = probe_backends()
        assert [p.name for p in probes] == backend_names()
        for probe in probes:
            assert isinstance(probe, BackendProbe)
            assert probe.detail

    def test_numpy_always_available(self):
        assert DEFAULT_BACKEND in available_backend_names()
        probe = NumpyBackend.probe()
        assert probe.available
        assert probe.version == np.__version__

    def test_register_requires_concrete_name(self):
        class Nameless(KernelBackend):
            pass

        with pytest.raises(InvalidParameterError, match="concrete name"):
            register_backend(Nameless)


class TestSelection:
    def test_default_is_numpy(self):
        assert current_backend_name() == DEFAULT_BACKEND
        assert isinstance(get_backend(), NumpyBackend)

    def test_set_backend_by_name_and_instance(self):
        backend = set_backend("numpy")
        assert isinstance(backend, NumpyBackend)
        assert get_backend() is backend
        mine = NumpyBackend()
        assert set_backend(mine) is mine
        assert get_backend() is mine
        set_backend(None)
        assert get_backend() is not mine

    def test_set_backend_unknown_name(self):
        with pytest.raises(InvalidParameterError, match="unknown kernel backend"):
            set_backend("nope")

    def test_set_backend_unavailable(self):
        unavailable = [
            p.name for p in probe_backends() if not p.available
        ]
        if not unavailable:
            pytest.skip("every registered backend is available here")
        with pytest.raises(BackendUnavailableError, match=unavailable[0]):
            set_backend(unavailable[0])

    def test_use_backend_restores_previous(self):
        mine = NumpyBackend()
        set_backend(mine)
        with use_backend("numpy") as inner:
            assert get_backend() is inner
            assert inner is not mine
        assert get_backend() is mine

    def test_use_backend_none_clears_inside_scope(self):
        mine = NumpyBackend()
        set_backend(mine)
        with use_backend(None):
            assert get_backend() is not mine
        assert get_backend() is mine


class TestEnvResolution:
    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert current_backend_name() == "numpy"

    def test_env_bad_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "not-a-backend")
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend()
        assert backend.name == DEFAULT_BACKEND
        # Resolution is cached: the second read must not warn again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend().name == DEFAULT_BACKEND

    def test_explicit_selection_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "not-a-backend")
        mine = NumpyBackend()
        set_backend(mine)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend() is mine


class TestPackageSurface:
    def test_top_level_exports(self):
        assert repro.current_backend_name() == DEFAULT_BACKEND
        assert repro.backend_names()[0] == DEFAULT_BACKEND
        assert DEFAULT_BACKEND in repro.available_backend_names()
        assert issubclass(repro.BackendUnavailableError, repro.BackendError)
