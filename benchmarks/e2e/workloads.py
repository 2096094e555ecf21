"""Workload definitions shared by the runner and its child processes.

Every workload runs in fresh child processes, one per *session*.  A
session is a fixed piece of work: set-up (spawn until ready), one cold
operation against an empty trace store, then ``warm_ops`` warm
operations; a run repeats sessions until its time is spent.  What an
operation is depends on the workload:

* ``fig6sim_dm`` / ``fig6ms_grid`` — one figure-driver job (the whole
  grid); cold against an empty store, warm against the filled one;
* ``dgemm_layouts`` — cold is one pass over the 3 x 6 algorithm x layout
  grid in a fresh process, warm is one multiply, in whole rounds over
  the grid in seeded orders;
* ``serve_mixed`` — cold is the pass over the base grids through a
  fresh service, warm is one request of the seeded mix.

The memsim grids are fixed; the seed draws the dgemm operands and the
service's request mix.
"""

from __future__ import annotations

import hashlib
import json
import random

PAPER_ALGORITHMS = ("standard", "strassen", "winograd")

#: name -> session kind, warm operations per session, and the kind's
#: parameters.
WORKLOADS: dict[str, dict] = {
    # Default path of a real figure on the direct-mapped machine: one
    # machine per trace, so the reuse-distance profile is pure overhead
    # against a streaming replay.
    "fig6sim_dm": {
        "kind": "memsim",
        "warm_ops": 100,
        "figure": "fig6sim",
        "params": {"n": 64, "tile": 16, "machine": "ultrasparc"},
    },
    # The same engines the other way round: one profile build answers
    # 16 associativity/TLB configs per trace.
    "fig6ms_grid": {
        "kind": "memsim",
        "warm_ops": 60,
        "figure": "fig6ms",
        "params": {"n": 64, "tile": 8},
    },
    # The multiply itself; touches no memsim, store or service code.
    "dgemm_layouts": {
        "kind": "dgemm",
        "warm_ops": 36,
        "params": {"n": 250},
    },
    # HTTP, protocol, store reads and JSON; the engines idle after the
    # cold pass.  The base grids are the requests the repository's own
    # service clients send: the CI scripted session's golden fig6sim
    # grid (n=48) and the n=24/32/40/56 variants of tests/test_serve.py,
    # plus fig6ms at its driver defaults.  The request mix drawn from
    # them (see serve_mix) is synthetic.
    "serve_mixed": {
        "kind": "serve",
        "warm_ops": 300,
        "grids": [
            *(
                {"figure": "fig6sim",
                 "params": {"n": n, "tile": 8,
                            "algorithms": ["standard", "strassen"],
                            "layouts": ["LC", "LZ"], "machine": {"scaled": 4}}}
                for n in (48, 24, 32, 40, 56)
            ),
            {"figure": "fig6ms", "params": {"n": 48, "tile": 8}},
        ],
    },
}

#: Request bodies the service must refuse with HTTP 400.
MALFORMED: tuple[bytes, ...] = (
    b"{not json",
    b"[1, 2, 3]",
    b'{"figure": "fig9"}',
    b'{"figure": "fig6sim", "params": [1, 2]}',
    b'{"figure": "fig6sim", "params": {"n": -3}}',
    b'{"figure": "fig6sim", "params": {"n": 32, "machine": "cray"}}',
    b'{"figure": "fig6sim", "bogus": 1}',
)

#: Axes of each served figure a request may take a subset of, with the
#: driver's values for a base grid that does not list them.
_SUBSET_AXES = {
    "fig6sim": {
        "algorithms": PAPER_ALGORITHMS,
        "layouts": ("LC", "LU", "LX", "LZ", "LG", "LH"),
    },
    "fig6ms": {
        "algorithms": ("standard", "strassen"),
        "layouts": ("LC", "LZ"),
        "l1_assocs": (1, 2, 4, 8),
        "l2_assocs": (1, 4),
        "tlb_entries": (8, 32),
    },
}


def row_digest(rows: list[dict]) -> str:
    """sha256 of the canonical JSON form of a figure's rows."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def driver_rows(figure: str, params: dict) -> list[dict]:
    """Rows of one figure from the in-process driver, serially.

    ``params`` uses the service's request schema, so the same dict
    drives a memsim job and checks a served one.
    """
    from repro.analysis import experiments
    from repro.serve.protocol import resolve_machine

    kwargs = dict(params)
    if figure == "fig6sim":
        kwargs["machine"] = resolve_machine(kwargs.get("machine", "ultrasparc"))
        return experiments.fig6_simulated(jobs=1, **kwargs)
    if figure == "fig6ms":
        return experiments.fig6_machine_scaling(jobs=1, **kwargs)
    raise ValueError(f"no driver for figure {figure!r}")


def dgemm_grid() -> list[tuple[str, str]]:
    """The 3 x 6 algorithm x layout grid of ``dgemm_layouts``."""
    from repro.layouts.registry import PAPER_LAYOUTS

    return [(algo, lay) for algo in PAPER_ALGORITHMS for lay in PAPER_LAYOUTS]


def _subset(rng: random.Random, values: tuple) -> list:
    """A random non-empty subset of ``values``, in their order."""
    while True:
        picked = [v for v in values if rng.random() < 0.5]
        if picked:
            return picked


def serve_mix(grids: list[dict], seed: int):
    """Endless seeded request mix of ``serve_mixed``.

    The shares are synthetic, not measured from service traffic.
    Yields ``(kind, arg)``:

    * ``("sweep", body)`` — 60%: a random subset of a base grid's axes,
      answered from the warm store (or, once sent, the finished job);
    * ``("repeat", u)`` — 30%: resend an earlier sweep body exactly, the
      one at fraction ``u`` of those sent so far;
    * ``("job", u)`` — 5%: ``GET /v1/jobs/<id>`` of an earlier sweep;
    * ``("bad", body)`` — 5%: a malformed body that must get a 400.
    """
    rng = random.Random(seed)
    while True:
        r = rng.random()
        if r < 0.60:
            base = rng.choice(grids)
            params = dict(base["params"])
            for axis, values in _SUBSET_AXES[base["figure"]].items():
                params[axis] = _subset(rng, params.get(axis, values))
            yield "sweep", {"figure": base["figure"], "params": params}
        elif r < 0.90:
            yield "repeat", rng.random()
        elif r < 0.95:
            yield "job", rng.random()
        else:
            yield "bad", rng.choice(MALFORMED)
