import os

import pytest


@pytest.fixture
def allow_cpus(monkeypatch):
    """allow_cpus(*ids) makes os.sched_getaffinity report the CPUs ids, so
    attention.masked_attention sees that many whatever the host has."""

    def allow(*ids):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(ids), raising=False)

    return allow
