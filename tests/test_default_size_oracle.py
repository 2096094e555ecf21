"""Exact-cap pricing against the per-access oracle at default size.

Every golden runs at n=32-64 on a scaled machine and the property
suites use short random traces, but the capped engine's bound and
residual tiers see long reuse windows only at size.  Each sample here
prices one default-size multiply through :meth:`TraceStore.stats` on an
empty store, so the profile is built at exactly the machine's caps, and
compares it with :func:`tests.test_multiconfig.oracle_hierarchy`
(:class:`LRUCache` L1, then L2 on the L1-miss stream, then the TLB) on
the same expanded trace.

Samples, and why each:

* standard/LC, n=250, tile 16, on ``ultrasparc_like()`` (4.72 M
  accesses): fig6sim's default point on the paper's direct-mapped
  machine.  At one direct-mapped machine's caps the L1 and L2 passes
  take the cap-1 path, and only the 64-entry TLB pass reaches the
  engine's tiers; this is the path every default memsim figure prices.
* standard/LZ, n=128, tile 16, on ``assoc_scaled(8, 4, 16)`` (0.59 M
  accesses): an 8-way L1 and a 4-way L2.  Only a machine that is not
  direct-mapped drives the L1 and L2 passes through the tiers.
* strassen/LH, n=128, tile 16, on the same machine (0.73 M accesses):
  its L2 stream has long reuse windows holding exactly ``cap - 1``
  distinct lines, so an engine whose tier-3 bounds settle a window one
  distinct key early misprices it (L2 misses 100,832 become 102,240);
  both standard-algorithm samples price right under that fault.
"""

import pytest

from repro.memsim.machine import assoc_scaled, ultrasparc_like
from repro.memsim.store import TraceStore, cached_multiply_stats
from tests.test_multiconfig import oracle_hierarchy

SAMPLES = [
    pytest.param("standard", "LC", 250, ultrasparc_like(), id="LC-250-ultrasparc"),
    pytest.param("standard", "LZ", 128, assoc_scaled(8, 4, 16), id="LZ-128-8way"),
    pytest.param("strassen", "LH", 128, assoc_scaled(8, 4, 16), id="LH-128-8way"),
]


@pytest.mark.parametrize("algorithm, layout, n, machine", SAMPLES)
def test_store_prices_like_oracle(tmp_path, monkeypatch, algorithm, layout, n, machine):
    store = TraceStore(root=tmp_path)
    traces = []
    build = store.trace

    def keep(fields, build_trace):
        traces.append(build(fields, build_trace))
        return traces[-1]

    monkeypatch.setattr(store, "trace", keep)
    (got,) = cached_multiply_stats(algorithm, layout, n, 16, [machine], store=store)
    (addresses,) = traces
    assert got == oracle_hierarchy(addresses, machine)
