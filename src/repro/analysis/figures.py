"""The figure table: one declaration per paper figure or table.

Each :class:`Figure` entry names the driver in
:mod:`repro.analysis.experiments` that computes the figure's rows, the
table columns and title the rows print under, and an optional footer
(fig2's layout gallery, fig4's slowdown line, fig5's plot).  The five
sweep figures also name their point generator
(:mod:`repro.analysis.parallel`) and, where the rows need the whole
grid, their merge step.

A figure's parameters are its driver's keyword signature, read once at
import: each :class:`Param` carries the keyword's name, its kind (from
the annotation) and its default.  Two surfaces are generated from this
table:

* the ``python -m repro <figure>`` subcommands, one flag per driver
  keyword the command line can spell, plus ``--jobs`` for sweeps;
* the simulation service's request schema
  (:mod:`repro.serve.protocol`): a figure is served when its entry has
  a point generator, and its request params are the driver keywords
  other than ``jobs``.

So each default is written once: in the driver signature, or, for a
default derived from other parameters (fig4's ``tiles`` depends on
``n``), in the point generator.  The hand-run figure benchmarks under
``benchmarks/`` print their tables through the same columns.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Any, Callable

from repro.algorithms.dgemm import ALGORITHMS
from repro.analysis import experiments as ex
from repro.analysis import parallel
from repro.analysis.report import ascii_plot, format_table
from repro.layouts import render_order_grid
from repro.layouts.registry import PAPER_LAYOUTS

__all__ = ["FIGURES", "Figure", "Param"]

#: Driver annotation -> parameter kind.  The command line spells the
#: ``int``, ``ints``, ``str``, ``strs`` and ``bool`` kinds; machine
#: models and tile ranges are served only; cost models are neither.
_KINDS: dict[str, str | None] = {
    "int": "int",
    "bool": "bool",
    "str": "str",
    "Sequence[str]": "strs",
    "Sequence[int]": "ints",
    "Sequence[int] | None": "ints",
    "MachineModel | None": "machine",
    "TileRange | None": "trange",
    "CostModel | None": None,
}

#: Parameter name -> the names its value (or each element) must be one of.
_CHOICES = {
    "algorithm": tuple(ALGORITHMS),
    "algorithms": tuple(ALGORITHMS),
    "layout": PAPER_LAYOUTS,
    "layouts": PAPER_LAYOUTS,
}


@dataclasses.dataclass(frozen=True)
class Param:
    """One driver keyword: name, kind and signature default."""

    name: str
    kind: str | None
    default: Any
    choices: tuple[str, ...] | None = None


@dataclasses.dataclass
class Figure:
    """One paper figure or table: how to compute, print and serve it."""

    name: str
    driver: Callable[..., list[dict]]
    #: ``str.format`` template over the driver keywords.
    title: str
    #: Table header -> row key; a row without the key prints ``-``.
    columns: dict[str, str]
    #: ``footer(rows, params)``: text printed under the table.
    footer: Callable[[list[dict], dict], str] | None = None
    #: Point generator taking the driver keywords other than ``jobs``.
    points: Callable[..., list[parallel.SweepPoint]] | None = None
    #: ``merge(raw_rows, **keywords)`` over the point rows, if any.
    merge: Callable[..., list[dict]] | None = None
    #: The driver's keywords other than ``jobs``, in signature order.
    params: tuple[Param, ...] = dataclasses.field(init=False)
    #: Whether the driver takes ``jobs`` (sweep worker processes).
    jobs: bool = dataclasses.field(init=False)
    #: The driver keywords the merge step takes.
    merge_keys: tuple[str, ...] = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        signature = inspect.signature(self.driver).parameters
        self.params = tuple(
            Param(name, _KINDS[p.annotation], p.default, _CHOICES.get(name))
            for name, p in signature.items()
            if name != "jobs"
        )
        self.jobs = "jobs" in signature
        self.merge_keys = (
            () if self.merge is None
            else tuple(inspect.signature(self.merge).parameters)[1:]
        )

    @property
    def help(self) -> str:
        """One-line description: the first line of the driver docstring."""
        return (inspect.getdoc(self.driver) or "").partition("\n")[0]

    def table(self, rows: list[dict], title: str | None = None) -> str:
        """The rows as an aligned table over this figure's columns."""
        cells = [[r.get(key, "-") for key in self.columns.values()] for r in rows]
        return format_table(list(self.columns), cells, title)

    def render(self, rows: list[dict], params: dict) -> str:
        """Titled table plus footer, as ``python -m repro`` prints it."""
        text = self.table(rows, self.title.format(**params))
        if self.footer is not None:
            text += "\n\n" + self.footer(rows, params)
        return text


def _gallery(rows: list[dict], params: dict) -> str:
    return "\n\n".join(
        f"--- {r['layout']} ---\n{render_order_grid(r['layout'], params['order'])}"
        for r in rows
    )


def _slowdown(rows: list[dict], params: dict) -> str:
    out = ex.slowdown_vs_native(n=params["n"], tile=32, repeats=params["repeats"])
    return f"slowdown vs native BLAS at t=32: {out['slowdown']:.2f}x"


_FIG5_SERIES = ("standard_LC", "standard_LZ", "strassen_LC", "strassen_LZ")


def _plot(rows: list[dict], params: dict) -> str:
    series = {key: [r[key] for r in rows] for key in _FIG5_SERIES}
    return ascii_plot(series, x=[r["n"] for r in rows])


#: Every figure, in ``python -m repro --help`` order.
FIGURES: dict[str, Figure] = {
    fig.name: fig
    for fig in (
        Figure(
            "fig1", ex.fig1_locality, "Figure 1: locality footprints ({n}x{n})",
            {"algorithm": "algorithm", "input": "input", "min": "min",
             "mean": "mean", "max": "max", "argmax": "argmax",
             "diag mean": "diag_mean"},
        ),
        Figure(
            "fig2", ex.fig2_layouts, "Dilation statistics",
            {"layout": "layout", "mean jump": "mean", "max jump": "max",
             "unit fraction": "unit_fraction"},
            footer=_gallery,
        ),
        Figure(
            "fig4", ex.fig4_tile_size_sweep, "Figure 4: tile-size sweep (n={n})",
            {"tile": "tile", "seconds": "seconds",
             "sim cycles/flop": "sim_cycles_per_flop",
             "L1 miss rate": "l1_miss_rate"},
            footer=_slowdown, points=parallel.fig4_points,
        ),
        Figure(
            "fig5", ex.fig5_robustness, "Figure 5: simulated memory cycles per flop",
            {"n": "n", **{key: key for key in _FIG5_SERIES}},
            footer=_plot, points=parallel.fig5_points,
        ),
        Figure(
            "fig6", ex.fig6_layout_comparison,
            "Figure 6: wall-clock + simulated scaling (n={n})",
            {"algorithm": "algorithm", "layout": "layout",
             "p=1 (s)": "p1_seconds", "p=2 (s)": "p2_seconds",
             "p=4 (s)": "p4_seconds"},
            points=parallel.fig6_points,
        ),
        Figure(
            "fig6sim", ex.fig6_simulated, "Figure 6 (simulated memory cost, n={n})",
            {"algorithm": "algorithm", "layout": "layout",
             "sim cycles/flop": "sim_cycles_per_flop",
             "vs LC": "vs_LC"},
            points=parallel.fig6sim_points, merge=ex.fig6sim_merge,
        ),
        Figure(
            "fig6ms", ex.fig6_machine_scaling,
            "Figure 6 (machine scaling: associativity/TLB grid, n={n})",
            {"algorithm": "algorithm", "layout": "layout",
             "L1 ways": "l1_assoc", "L2 ways": "l2_assoc",
             "TLB": "tlb_entries", "L1 miss rate": "l1_miss_rate",
             "cycles/flop": "cycles_per_flop", "vs LC": "vs_LC"},
            points=parallel.fig6ms_points, merge=ex.fig6ms_merge,
        ),
        Figure(
            "fig7", ex.fig7_kernel_tiers, "Figure 7: leaf-kernel tiers (n={n})",
            {"kernel": "kernel", "seconds": "seconds",
             "factor vs blas": "factor_vs_blas"},
        ),
        Figure(
            "critical", ex.critical_path_table, "Critical path (n={n}, t={tile})",
            {"algorithm": "algorithm", "work": "work", "span": "span",
             "parallelism": "parallelism", "speedup@4": "speedup_at_4"},
        ),
        Figure(
            "scaling", ex.scaling_table, "Work-stealing scaling: {algorithm}, n={n}",
            {"procs": "procs", "greedy speedup": "greedy_speedup",
             "ws speedup": "ws_speedup", "utilization": "utilization",
             "steals": "steals"},
        ),
        Figure(
            "sharing", ex.false_sharing_table, "False sharing under {procs} processors",
            {"n": "n", "LC shared": "LC_shared_lines",
             "LC false": "LC_false_shared", "LC invalidations": "LC_invalidations",
             "LZ shared": "LZ_shared_lines"},
        ),
        Figure(
            "conversion", ex.conversion_accounting, "Conversion cost accounting",
            {"n": "n", "total (s)": "total_seconds",
             "conversion (s)": "conversion_seconds",
             "fraction": "conversion_fraction", "passes": "conversions"},
        ),
    )
}
