"""The backend contract and registry: ids, construction, projection,
and the ``repro.api.backends()`` listing."""

from __future__ import annotations

import pytest

import repro.api
from repro.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    BackendCapabilities,
    DataflowBackend,
    HLSBackend,
    StaticBackend,
    backend_ids,
    create_backend,
    get_backend_class,
    register_backend,
    resolve_backend_id,
)
from repro.diagnostics.errors import PipelineConfigError
from repro.flows.config import OptimizationConfig


class TestRegistry:
    def test_both_backends_registered_default_first(self):
        assert backend_ids() == ["static", "dataflow"]
        assert DEFAULT_BACKEND == "static"
        assert BACKENDS["static"] is StaticBackend
        assert BACKENDS["dataflow"] is DataflowBackend

    def test_unknown_id_raises_config_error(self):
        with pytest.raises(PipelineConfigError, match="unknown HLS backend"):
            get_backend_class("vitis")
        with pytest.raises(PipelineConfigError):
            create_backend("dynamatic")

    def test_resolve_backend_id(self):
        assert resolve_backend_id(None) == "static"
        assert resolve_backend_id("dataflow") == "dataflow"
        assert resolve_backend_id(StaticBackend()) == "static"
        with pytest.raises(PipelineConfigError):
            resolve_backend_id("nope")

    def test_create_backend_constructs_and_passes_through(self):
        backend = create_backend("dataflow", device="xc7z020")
        assert isinstance(backend, DataflowBackend)
        assert backend.device.name == "xc7z020"
        # An already-built instance is the caller's: passed through as-is.
        assert create_backend(backend) is backend

    def test_duplicate_or_abstract_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):

            @register_backend
            class Impostor(HLSBackend):
                id = "static"
                capabilities = StaticBackend.capabilities

        with pytest.raises(ValueError, match="concrete id"):

            @register_backend
            class Nameless(HLSBackend):
                pass


class TestCapabilities:
    def test_static_honours_full_vocabulary(self):
        caps = StaticBackend.capabilities
        assert caps.scheduling == "static"
        assert set(caps.directives) == {"pipeline", "ii", "unroll", "partition"}
        assert caps.respects_ii and caps.shares_functional_units

    def test_dataflow_ignores_static_scheduling_directives(self):
        caps = DataflowBackend.capabilities
        assert caps.scheduling == "dynamic"
        assert "pipeline" not in caps.directives
        assert "ii" not in caps.directives
        assert not caps.respects_ii and not caps.shares_functional_units

    def test_projection_collapses_out_of_vocabulary_directives(self):
        base = OptimizationConfig(name="a")
        pipelined = OptimizationConfig(name="b", pipeline_innermost=True, ii=4)
        static, dataflow = StaticBackend(), DataflowBackend()
        # Static sees the pipeline directive: distinct designs.
        assert static.project_signature(base) != static.project_signature(
            pipelined
        )
        # Dataflow cannot: every II variant is the same circuit.
        assert dataflow.project_signature(base) == dataflow.project_signature(
            pipelined
        )
        # ...but unroll still differentiates under both.
        unrolled = OptimizationConfig(name="c", unroll_innermost=2)
        assert dataflow.project_signature(base) != dataflow.project_signature(
            unrolled
        )


class TestApiListing:
    def test_backends_listing_matches_registry(self):
        listing = repro.api.backends()
        assert [entry["id"] for entry in listing] == backend_ids()
        by_id = {entry["id"]: entry for entry in listing}
        assert by_id["static"]["scheduling"] == "static"
        assert by_id["dataflow"]["scheduling"] == "dynamic"
        assert by_id["dataflow"]["respects_ii"] is False
        assert "pipeline" in by_id["static"]["directives"]
        assert "pipeline" not in by_id["dataflow"]["directives"]

    def test_listing_is_api_only(self):
        # repro.backends (the subpackage) owns the top-level name; the
        # listing function deliberately lives at repro.api.backends.
        import repro

        assert repro.backends is not repro.api.backends
        assert isinstance(repro.api.backends(), list)
