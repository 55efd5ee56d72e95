"""The link table: one table form of Table 2 behind every selector.

``CommParams.link_table`` rows, ``link_arrays`` and the scalar
``for_message`` / ``persistent_link`` must name the same constants at
every size — in particular one ulp either side of each protocol limit,
where a ``<`` for a ``<=`` would show.  Comparisons are on ``float.hex``
so a last-bit difference fails.
"""

import numpy as np
import pytest

from repro.machine import resolve_machine
from repro.machine.locality import CopyDirection, Locality, TransportKind
from repro.machine.params import select_links

MACHINES = ["lassen", "summit", "frontier_like"]


def _probe_sizes(params, kind):
    th = params.thresholds
    limits = ((th.gpu_eager_limit,) if kind is TransportKind.GPU
              else (th.short_limit, th.eager_limit))
    sizes = [0.0, 1e9]
    for limit in limits:
        limit = float(limit)
        sizes += [limit, np.nextafter(limit, np.inf)]
        if limit > 0:
            sizes.append(np.nextafter(limit, -np.inf))
    return np.array(sizes)


def _scalar_pairs(params, kind, locality, sizes, pre_posted):
    scalar = params.persistent_link if pre_posted else params.for_message
    links = [scalar(kind, locality, float(s))[1] for s in sizes]
    return ([l.alpha.hex() for l in links], [l.beta.hex() for l in links])


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("machine_name", MACHINES)
@pytest.mark.parametrize("kind", list(TransportKind))
@pytest.mark.parametrize("locality", list(Locality))
@pytest.mark.parametrize("pre_posted", [False, True])
def test_table_and_link_arrays_match_scalar_selection(
        machine_name, kind, locality, pre_posted):
    params = resolve_machine(machine_name).comm_params
    sizes = _probe_sizes(params, kind)
    want_alpha, want_beta = _scalar_pairs(params, kind, locality, sizes,
                                          pre_posted)

    row = params.link_table(kind, locality, pre_posted)
    assert row.shape == (8,) and not row.flags.writeable
    alpha, beta = select_links(row, sizes)
    assert (_hex(alpha), _hex(beta)) == (want_alpha, want_beta)

    alpha, beta = params.link_arrays(kind, locality, sizes,
                                     pre_posted=pre_posted)
    assert alpha.dtype == beta.dtype == np.float64
    assert alpha.shape == beta.shape == sizes.shape
    assert (_hex(alpha), _hex(beta)) == (want_alpha, want_beta)


@pytest.mark.parametrize("kind", list(TransportKind))
def test_nan_sizes_take_the_rendezvous_pair(kind):
    # what np.select's default gave: no condition is true for NaN
    params = resolve_machine("lassen").comm_params
    alpha, beta = params.link_arrays(kind, Locality.OFF_NODE,
                                     np.array([np.nan, 1e9]))
    assert alpha[0].hex() == alpha[1].hex()
    assert beta[0].hex() == beta[1].hex()


def test_link_arrays_rejects_negative_sizes():
    params = resolve_machine("lassen").comm_params
    with pytest.raises(ValueError, match="message sizes must be >= 0"):
        params.link_arrays(TransportKind.CPU, Locality.ON_NODE,
                           np.array([8.0, -1.0]))


def test_select_links_broadcasts_rows_against_sizes():
    """Per-slot rows (…, 1, 8) against a (…, N) size tensor."""
    params = resolve_machine("lassen").comm_params
    keys = [(TransportKind.CPU, Locality.ON_SOCKET, False),
            (TransportKind.GPU, Locality.OFF_NODE, True)]
    sizes = np.array([[8.0, 600.0, 1e6], [8.0, 9000.0, 1e6]])
    rows = np.stack([params.link_table(*key) for key in keys])[:, None, :]
    alpha, beta = select_links(rows, sizes)
    assert alpha.shape == beta.shape == sizes.shape
    for i, key in enumerate(keys):
        a, b = params.link_arrays(key[0], key[1], sizes[i],
                                  pre_posted=key[2])
        assert _hex(alpha[i]) == _hex(a) and _hex(beta[i]) == _hex(b)


class TestCopyLinkMemo:
    def test_largest_measured_count_not_exceeding_request(self):
        copy = resolve_machine("lassen").copy_params
        for direction in CopyDirection:
            counts = copy.measured_counts(direction)
            for nproc in range(1, max(counts) + 3):
                chosen = max(n for n in counts if n <= nproc)
                # asked twice: the second answer comes from the memo
                assert copy.link(direction, nproc) is copy.table[
                    (direction, chosen)]
                assert copy.link(direction, nproc) is copy.table[
                    (direction, chosen)]

    def test_invalid_nproc_raises_every_time(self):
        copy = resolve_machine("lassen").copy_params
        for _ in range(2):
            with pytest.raises(ValueError, match="nproc must be >= 1"):
                copy.link(CopyDirection.D2H, 0)

    def test_link_is_resolved_once_per_key(self, monkeypatch):
        copy = resolve_machine("lassen").copy_params
        calls = []
        real = type(copy).measured_counts
        monkeypatch.setattr(
            type(copy), "measured_counts",
            lambda self, direction: calls.append(direction)
            or real(self, direction))
        for _ in range(5):
            copy.link(CopyDirection.H2D, 3)
        assert len(calls) <= 1
