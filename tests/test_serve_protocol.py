"""In-process tests of the service's request canonicalization.

The request key (:meth:`SweepRequest.key`) is the coalescing identity:
requests that spell the same sweep differently must share one key, and
requests for different sweeps must not.
"""

import pytest

from repro.memsim.machine import ultrasparc_like
from repro.serve.protocol import machine_to_dict, parse_request

#: Every served param of each figure, spelled out at its default.
DEFAULTS = {
    "fig6sim": {
        "n": 250,
        "tile": 16,
        "algorithms": ["standard", "strassen", "winograd"],
        "layouts": ["LC", "LU", "LX", "LZ", "LG", "LH"],
        "machine": "ultrasparc",
    },
    "fig6ms": {
        "n": 48,
        "tile": 8,
        "algorithms": ["standard", "strassen"],
        "layouts": ["LC", "LZ"],
        "l1_assocs": [1, 2, 4, 8],
        "l2_assocs": [1, 4],
        "tlb_entries": [8, 32],
    },
}

#: A different value for each param.
CHANGED = {
    "n": 64,
    "tile": 4,
    "algorithms": ["standard"],
    "layouts": ["LZ", "LC"],
    "l1_assocs": [1, 2],
    "l2_assocs": [4],
    "tlb_entries": [8],
    "machine": "modern",
}


def key(figure, params, jobs=1):
    return parse_request({"figure": figure, "params": params, "jobs": jobs}).key()


@pytest.mark.parametrize("figure", sorted(DEFAULTS))
def test_spellings_of_the_defaults_share_one_key(figure):
    defaults = DEFAULTS[figure]
    spellings = [{}, defaults, dict(reversed(defaults.items()))]
    if "machine" in defaults:
        spellings.append(dict(defaults, machine=machine_to_dict(ultrasparc_like())))
    assert len({key(figure, params) for params in spellings}) == 1


@pytest.mark.parametrize(
    "figure, param",
    [(figure, param) for figure in sorted(DEFAULTS) for param in DEFAULTS[figure]],
)
def test_changing_one_value_changes_the_key(figure, param):
    defaults = DEFAULTS[figure]
    assert key(figure, dict(defaults, **{param: CHANGED[param]})) != key(
        figure, defaults
    )


@pytest.mark.parametrize("figure", sorted(DEFAULTS))
def test_jobs_and_figure_are_part_of_the_key(figure):
    assert key(figure, {}, jobs=2) != key(figure, {})
    other = "fig6ms" if figure == "fig6sim" else "fig6sim"
    assert key(other, {}) != key(figure, {})
