"""Shared fixtures for the test-suite.

Everything is deterministic: fixtures take fixed seeds so failures are
reproducible, and the "small" system sizes keep the full suite fast while
still exercising real quorum logic (quorums of 7+ members, 16% Byzantine).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.config import AERConfig
from repro.core.scenario import make_scenario
from repro.runner import run_aer

SMALL_N = 32
MEDIUM_N = 64


@pytest.fixture(scope="session")
def small_config() -> AERConfig:
    """AER configuration for a 32-node system."""
    return AERConfig.for_system(SMALL_N, sampler_seed=11)


@pytest.fixture(scope="session")
def small_scenario(small_config):
    """A comfortable almost-everywhere scenario on 32 nodes (seed 11)."""
    return make_scenario(
        SMALL_N,
        config=small_config,
        t=SMALL_N // 6,
        knowledge_fraction=0.78,
        wrong_candidate_mode="random",
        seed=11,
    )


@pytest.fixture(scope="session")
def small_samplers(small_config):
    """Shared sampler suite for the 32-node configuration."""
    return small_config.build_samplers()


@pytest.fixture(scope="session")
def medium_config() -> AERConfig:
    """AER configuration for a 64-node system."""
    return AERConfig.for_system(MEDIUM_N, sampler_seed=7)


@pytest.fixture(scope="session")
def medium_scenario(medium_config):
    """A comfortable almost-everywhere scenario on 64 nodes (seed 7)."""
    return make_scenario(
        MEDIUM_N,
        config=medium_config,
        t=MEDIUM_N // 6,
        knowledge_fraction=0.78,
        wrong_candidate_mode="random",
        seed=7,
    )


@pytest.fixture(scope="session")
def direct_aer_run():
    """``f(n, adversary, mode, seed)``: an AER run built by hand from
    ``make_scenario`` + ``run_aer`` with the ``aer`` adapter's defaults — the
    independent check on the adapter's parameter resolution."""

    def run(n, adversary="none", mode="sync", seed=0):
        config = AERConfig.for_system(n, sampler_seed=seed)
        scenario = make_scenario(
            n, config=config, t=max(1, n // 6), knowledge_fraction=0.78,
            wrong_candidate_mode="random", seed=seed,
        )
        return run_aer(
            scenario, config=config, adversary_name=adversary, mode=mode, seed=seed
        )

    return run


@pytest.fixture(scope="session")
def small_sync_result(small_scenario, small_config):
    """One failure-free synchronous AER run on the small scenario (reused by many tests)."""
    return run_aer(small_scenario, config=small_config, adversary_name="none", seed=11)


@pytest.fixture(scope="session")
def http():
    """``f(url, body=None, method=None) -> (status, body)`` against a real
    socket: ``body`` is sent as JSON (``bytes`` go out raw), the answer comes
    back parsed when it is JSON and as text otherwise (the NDJSON stream)."""

    def request(url, body=None, method=None):
        data = body if body is None or isinstance(body, bytes) else json.dumps(body).encode()
        req = urllib.request.Request(url, data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                status, headers, raw = resp.status, resp.headers, resp.read()
        except urllib.error.HTTPError as exc:
            status, headers, raw = exc.code, exc.headers, exc.read()
        if headers.get("Content-Type") == "application/json":
            return status, json.loads(raw)
        return status, raw.decode()

    return request
