"""Wire protocol of the simulation service: request validation and the
request -> :class:`~repro.analysis.parallel.SweepPoint` decomposition.

A sweep request is a small JSON document::

    {"figure": "fig6sim",
     "params": {"n": 48, "tile": 8,
                "algorithms": ["standard", "strassen"],
                "layouts": ["LC", "LZ"],
                "machine": {"scaled": 4}},
     "jobs": 2}

The schema comes from the figure table
(:data:`repro.analysis.figures.FIGURES`): a figure is served when its
entry has a point generator, and its params are the driver's keywords
other than ``jobs``, each with the driver's default.
:func:`parse_request` checks every param with the coercer for its kind
(algorithm and layout names must be ones a sweep can run) and
normalizes the request into a :class:`SweepRequest` whose ``params``
are in *canonical JSON form*: every default filled in, the machine spec
expanded to the full :class:`~repro.memsim.machine.MachineModel` field
dict, and a ``None`` default (fig4's ``tiles``, fig5's ``n_values``,
fig6's ``trange``) left null for the point generator to derive.
Canonicalization is what makes coalescing work: the request key
(:meth:`SweepRequest.key`) is a sha256 over the canonical payload, so
two clients asking for the same sweep in different spellings
(``"machine": "ultrasparc"`` vs. the explicit field dict, params in any
order, defaults implicit or spelled out) land on the same key and share
one execution.

:func:`build_sweep` turns a validated request into the figure entry's
point grid and merge step — the *same* generator and merge the
in-process driver calls — which is what makes served results
byte-identical to the driver path (the black-box golden tests in
``tests/test_serve.py`` pin this).

The ``fault`` figure exists only for the fault-injection test suite
and is hidden unless ``REPRO_SERVE_TEST_HOOKS`` is set: its first
point SIGKILLs the worker that runs it (once, guarded by a sentinel
file), so the tests can prove the service retries broken jobs and that
the shared trace store survives a worker dying mid-sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
from typing import Any, Callable, Sequence

from repro import knobs
# The served merge steps; build_sweep calls them through this module.
from repro.analysis.experiments import fig6ms_merge, fig6sim_merge  # noqa: F401
from repro.analysis.figures import FIGURES, Figure
from repro.analysis.parallel import SweepPoint, machine_or_default, point_function
from repro.matrix.tile import TileRange
from repro.memsim.machine import (
    CacheGeometry,
    MachineModel,
    modern_like,
    scaled,
    ultrasparc_like,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SweepRequest",
    "build_sweep",
    "known_figures",
    "machine_from_dict",
    "machine_to_dict",
    "parse_request",
    "resolve_machine",
]

#: Bump when the request canonicalization changes incompatibly; part of
#: the request key, so old and new servers never coalesce across it.
PROTOCOL_VERSION = 2


class ProtocolError(ValueError):
    """A malformed or unserviceable sweep request (HTTP 400)."""


# -- machine specs -----------------------------------------------------

#: Named machine models a request may ask for.
_MACHINES: dict[str, Callable[[], MachineModel]] = {
    "ultrasparc": ultrasparc_like,
    "modern": modern_like,
}


def resolve_machine(spec: Any) -> MachineModel:
    """A :class:`MachineModel` from a request's machine spec.

    Accepts ``None`` (the figures' default machine), a registered name
    (``"ultrasparc"``, ``"modern"``), a ``{"scaled": k}`` shrink spec,
    or a full field dict as produced by :func:`machine_to_dict`.
    """
    if spec is None:
        return machine_or_default(None)
    if isinstance(spec, str):
        if spec not in _MACHINES:
            raise ProtocolError(
                f"unknown machine {spec!r}; known: {sorted(_MACHINES)} "
                f"or {{'scaled': k}}"
            )
        return _MACHINES[spec]()
    if isinstance(spec, dict) and set(spec) == {"scaled"}:
        factor = spec["scaled"]
        if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
            raise ProtocolError(
                f"machine 'scaled' factor must be a positive integer, "
                f"got {factor!r}"
            )
        return scaled(factor)
    if isinstance(spec, dict):
        try:
            return machine_from_dict(spec)
        except (TypeError, KeyError, ValueError) as exc:
            raise ProtocolError(f"bad machine field dict: {exc}") from None
    raise ProtocolError(
        f"machine spec must be null, a name, {{'scaled': k}}, or a field "
        f"dict; got {type(spec).__name__}"
    )


def machine_to_dict(machine: MachineModel) -> dict:
    """Canonical JSON form of a machine model (the request-key form)."""
    return dataclasses.asdict(machine)


def machine_from_dict(fields: dict) -> MachineModel:
    """Rebuild a :class:`MachineModel` from its canonical field dict."""
    payload = dict(fields)
    payload["l1"] = CacheGeometry(**payload["l1"])
    payload["l2"] = CacheGeometry(**payload["l2"])
    return MachineModel(**payload)


# -- per-parameter coercion --------------------------------------------
#
# Each coercer reads one param (absent: the driver default) and returns
# its canonical JSON form, or raises ProtocolError.


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _pos_int(params: dict, name: str, default: int) -> int:
    value = params.get(name, default)
    if not _is_int(value) or value < 1:
        raise ProtocolError(f"param {name!r} must be a positive integer")
    return value


def _int_list(
    params: dict, name: str, default: Sequence[int] | None
) -> list[int] | None:
    value = params.get(name, default)
    if value is None and default is None:
        return None  # derived by the figure's point generator
    if (
        not isinstance(value, (list, tuple))
        or not value
        or not all(_is_int(v) and v >= 1 for v in value)
    ):
        raise ProtocolError(
            f"param {name!r} must be a non-empty list of positive integers"
        )
    return list(value)


def _str_list(params: dict, name: str, default: Sequence[str]) -> list[str]:
    value = params.get(name, default)
    if (
        not isinstance(value, (list, tuple))
        or not value
        or not all(isinstance(v, str) for v in value)
    ):
        raise ProtocolError(f"param {name!r} must be a non-empty list of strings")
    return list(value)


def _name(params: dict, name: str, default: str) -> str:
    value = params.get(name, default)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"param {name!r} must be a non-empty string")
    return value


def _flag(params: dict, name: str, default: bool) -> bool:
    value = params.get(name, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"param {name!r} must be a boolean")
    return value


def _machine(params: dict, name: str, default: None) -> dict:
    """The machine spec's full field dict (null: the default machine)."""
    return machine_to_dict(resolve_machine(params.get(name, default)))


def _trange(params: dict, name: str, default: None) -> list[int] | None:
    value = params.get(name, default)
    if value is None:
        return None  # derived by the figure's point generator
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(_is_int(v) for v in value)
    ):
        raise ProtocolError(f"param {name!r} must be [t_min, t_max]")
    try:
        TileRange(*value)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return list(value)


#: Figure parameter kind (see :mod:`repro.analysis.figures`) -> coercer.
_COERCERS: dict[str, Callable[[dict, str, Any], Any]] = {
    "int": _pos_int,
    "ints": _int_list,
    "str": _name,
    "strs": _str_list,
    "bool": _flag,
    "machine": _machine,
    "trange": _trange,
}


def _check_names(name: str, value: str | list[str], known: Sequence[str]) -> None:
    unknown = [v for v in ([value] if isinstance(value, str) else value)
               if v not in known]
    if unknown:
        raise ProtocolError(f"unknown {name} {unknown}; known: {list(known)}")


def _reject_unknown(params: dict, known: Sequence[str]) -> None:
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ProtocolError(
            f"unknown param(s) {unknown}; accepted: {sorted(known)}"
        )


# -- schemas -----------------------------------------------------------


def _canonical(figure: Figure, params: dict) -> dict:
    """A served figure's params in canonical JSON form."""
    served = [p for p in figure.params if p.kind in _COERCERS]
    _reject_unknown(params, [p.name for p in served])
    canonical = {}
    for p in served:
        value = _COERCERS[p.kind](params, p.name, p.default)
        if p.choices:
            _check_names(p.name, value, p.choices)
        canonical[p.name] = value
    return canonical


def _normalize_fault(params: dict) -> dict:
    _reject_unknown(params, ("sentinel_dir", "points", "kill_index", "n", "tile"))
    sentinel_dir = params.get("sentinel_dir")
    if not isinstance(sentinel_dir, str) or not sentinel_dir:
        raise ProtocolError("param 'sentinel_dir' is required for 'fault'")
    points = _pos_int(params, "points", 2)
    kill_index = params.get("kill_index", 0)
    if not _is_int(kill_index) or not 0 <= kill_index < points:
        raise ProtocolError("param 'kill_index' must be in [0, points)")
    return {
        "sentinel_dir": sentinel_dir,
        "points": points,
        "kill_index": kill_index,
        "n": _pos_int(params, "n", 16),
        "tile": _pos_int(params, "tile", 8),
    }


def known_figures() -> list[str]:
    """Figure names a client may request: every figure with a point
    generator, plus ``fault`` when the test hooks are on."""
    out = [name for name, figure in FIGURES.items() if figure.points is not None]
    if knobs.flag("REPRO_SERVE_TEST_HOOKS"):
        out.append("fault")
    return out


# -- requests ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """One validated, canonicalized sweep request.

    ``params`` is the canonical JSON form (defaults filled, machine
    expanded); ``jobs`` is the requested execution width (1 = the exact
    serial in-process path; >1 = the service's shared worker pool).
    """

    figure: str
    params: dict
    jobs: int

    def key(self) -> str:
        """Content address of the request: the coalescing identity."""
        blob = json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "figure": self.figure,
                "params": self.params,
                "jobs": self.jobs,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def job_id(self) -> str:
        """Short job identifier (request-key prefix) used in URLs."""
        return self.key()[:16]


def parse_request(body: Any) -> SweepRequest:
    """Validate and canonicalize one ``POST /v1/sweep`` body."""
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    figure = body.get("figure")
    known = known_figures()
    if figure not in known:
        raise ProtocolError(f"unknown figure {figure!r}; known: {known}")
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    jobs = body.get("jobs", 1)
    if not _is_int(jobs) or jobs < 1:
        raise ProtocolError("'jobs' must be a positive integer")
    extras = sorted(set(body) - {"figure", "params", "jobs", "wait", "timeout_s"})
    if extras:
        raise ProtocolError(f"unknown request field(s) {extras}")
    if figure == "fault":
        return SweepRequest(figure, _normalize_fault(params), jobs)
    return SweepRequest(figure, _canonical(FIGURES[figure], params), jobs)


# -- decomposition -----------------------------------------------------


def _driver_value(kind: str | None, value: Any) -> Any:
    """A canonical param as the driver and its point generator take it."""
    if kind == "machine":
        return machine_from_dict(value)
    if kind == "trange" and value is not None:
        return TileRange(*value)
    return value


def _fault_points(p: dict) -> list[SweepPoint]:
    return [
        SweepPoint(
            "fault", i, "serve.fault.point",
            tuple(sorted({
                "index": i,
                "sentinel_dir": p["sentinel_dir"],
                "kill": i == p["kill_index"],
                "n": p["n"],
                "tile": p["tile"],
            }.items())),
        )
        for i in range(p["points"])
    ]


def build_sweep(
    request: SweepRequest,
) -> tuple[list[SweepPoint], Callable[[list[dict]], list[dict]]]:
    """The request's point grid plus its row-merge step.

    Uses the figure entry's point generator and merge step, the ones
    the in-process driver calls, so a served sweep is the driver's
    sweep: same points, same canonical order, same merge —
    byte-identical rows.
    """
    identity: Callable[[list[dict]], list[dict]] = lambda rows: rows
    if request.figure == "fault":
        return _fault_points(request.params), identity
    figure = FIGURES[request.figure]
    kwargs = {
        p.name: _driver_value(p.kind, request.params[p.name])
        for p in figure.params
        if p.name in request.params
    }
    points = figure.points(**kwargs)
    if figure.merge is None:
        return points, identity
    # Looked up by name in this module, so the served merge step is one
    # call edge that benchmarks/e2e/tracing.py can wrap.
    merge = globals()[figure.merge.__name__]
    merge_kwargs = {key: kwargs[key] for key in figure.merge_keys}
    return points, lambda rows: merge(rows, **merge_kwargs)


@point_function("serve.fault.point")
def fault_point(
    *, index: int, sentinel_dir: str, kill: bool, n: int, tile: int
) -> dict:
    """Fault-injection point: SIGKILL this worker once, then compute.

    The first execution of the kill point writes a sentinel file and
    SIGKILLs its own process — from inside a pool worker that breaks
    the pool mid-sweep, exactly like an OOM kill would.  On retry the
    sentinel exists, so the point computes its (deterministic) row
    through the shared trace store like any real figure point.
    """
    if kill:
        sentinel = os.path.join(sentinel_dir, "killed")
        if not os.path.exists(sentinel):
            try:
                os.makedirs(sentinel_dir, exist_ok=True)
                with open(sentinel, "w") as fh:
                    fh.write(str(os.getpid()))
                    fh.flush()
                    os.fsync(fh.fileno())
            except OSError:
                pass  # unwritable sentinel: die on *every* attempt, so
                #       the retry-exhaustion test can drain the budget
            os.kill(os.getpid(), signal.SIGKILL)
    from repro.memsim.store import cached_multiply_stats

    stats = cached_multiply_stats("standard", "LZ", n, tile, scaled(8))
    return {"index": index, "cycles": stats.cycles,
            "l1_miss_rate": stats.l1_miss_rate}
