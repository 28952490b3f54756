"""Shared fixtures: small, session-scoped warehouses.

Tests use reduced-size datasets (a few thousand facts) so the suite stays
fast; the benchmarks run the paper-scale versions.
"""

from __future__ import annotations

import pytest

from repro.core import KdapSession
from repro.datasets import build_aw_online, build_aw_reseller, build_ebiz
from repro.plan import QueryEngine


@pytest.fixture(scope="session")
def aw_online():
    """A small AW_ONLINE warehouse (shared across the whole test session)."""
    return build_aw_online(num_customers=300, num_facts=8000, seed=42)


@pytest.fixture(scope="session")
def aw_reseller():
    """A small AW_RESELLER warehouse."""
    return build_aw_reseller(num_resellers=120, num_employees=40,
                             num_facts=8000, seed=43)


@pytest.fixture(scope="session")
def ebiz():
    """A small EBiz warehouse (the paper's running example)."""
    return build_ebiz(num_customers=80, num_stores=10, num_trans=1200,
                      seed=7)


@pytest.fixture(scope="session")
def aw_engine(aw_online):
    """A memory-backend engine over the small AW_ONLINE warehouse; every
    subspace is engine-bound, so hand-built ones bind to this."""
    engine = QueryEngine(aw_online)
    yield engine
    engine.close()


@pytest.fixture(scope="session")
def ebiz_engine(ebiz):
    """A memory-backend engine over the EBiz warehouse."""
    engine = QueryEngine(ebiz)
    yield engine
    engine.close()


@pytest.fixture(scope="session")
def online_session(aw_online):
    """A KDAP session over the small AW_ONLINE warehouse."""
    return KdapSession(aw_online)


@pytest.fixture(scope="session")
def reseller_session(aw_reseller):
    """A KDAP session over the small AW_RESELLER warehouse."""
    return KdapSession(aw_reseller)


@pytest.fixture(scope="session")
def ebiz_session(ebiz):
    """A KDAP session over the EBiz warehouse."""
    return KdapSession(ebiz)
