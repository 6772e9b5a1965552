"""The admittance paths that ``CaseArrays.admittance(on, at)`` replaced,
kept as references for the differential tests.

Before it, a screened combination summed one admittance over the whole
network with exact zeros dropped; ``find_islands`` read the islands off
that matrix's nonzero pattern, and ``_Jacobian`` cut each island's rows
back out of it, storing every diagonal.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


def network_admittance(arr, on) -> sp.csr_matrix:
    """The coo -> csr incidence sum over every bus, exact zeros dropped."""
    n = arr.load_p.size
    f, t = arr.f[on], arr.t[on]
    ends = np.column_stack([f, t]).ravel()
    diag = np.zeros(n, dtype=complex)
    np.add.at(diag, ends, np.column_stack([arr.yff[on], arr.ytt[on]]).ravel())
    off = np.column_stack([arr.yft[on], arr.ytf[on]]).ravel()
    cols = np.column_stack([t, f]).ravel()
    at = np.arange(n)
    Y = sp.csr_matrix(
        (np.concatenate([off, diag]), (np.concatenate([ends, at]), np.concatenate([cols, at]))),
        shape=(n, n),
    )
    Y.eliminate_zeros()
    return Y


def island_rows(Y: sp.csr_matrix, take: np.ndarray) -> sp.csr_matrix:
    """The rows and columns of the buses at positions ``take`` of ``Y``,
    renumbered in ``take``'s order, with every diagonal stored: the
    extraction ``_Jacobian`` made from the network admittance."""
    n = take.size
    at = np.arange(n)
    pos = np.full(Y.shape[0], -1)
    pos[take] = at
    # the rows of the island's buses, entry by entry, and their columns
    # renumbered (-1 outside the island)
    stop = Y.indptr[take + 1]
    count = stop - Y.indptr[take]
    end = count.cumsum()
    entry = (stop - end).repeat(count) + np.arange(end[-1])
    cols = pos[Y.indices[entry]]
    inside = cols >= 0
    # row-major keys, then every diagonal's with a zero value: the stable
    # sort keeps a stored diagonal ahead of the zero, which is dropped
    key = np.concatenate([(at.repeat(count) * n + cols)[inside], at * (n + 1)])
    order = key.argsort(kind="stable")
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    order = order[first]
    y = np.concatenate([Y.data[entry[inside]], np.zeros(n, dtype=complex)])[order]
    rows, cols = np.divmod(key[first], n)
    indptr = np.concatenate([[0], rows.searchsorted(at, "right")]).astype(np.intc)
    return sp.csr_matrix((y, cols.astype(np.intc), indptr), shape=(n, n))


def pattern_islands(case, bus_on=None, branch_on=None) -> tuple[np.ndarray, np.ndarray]:
    """``find_islands`` as it read the islands off the nonzero pattern of
    the network admittance: the in-service branch mask, and per island its
    bus positions in ascending bus-id order, islands ordered by their
    smallest member id."""
    arr = case.arrays
    n = arr.load_p.size
    bus_on = np.ones(n, dtype=bool) if bus_on is None else bus_on
    on = (arr.status if branch_on is None else branch_on) & bus_on[arr.f] & bus_on[arr.t]
    Y = network_admittance(arr, on)
    pattern = sp.csr_matrix((np.ones(Y.indices.size), Y.indices, Y.indptr), shape=(n, n))
    _, labels = connected_components(pattern, directed=True, connection="strong")
    ids = np.fromiter(case.bus_index, dtype=int, count=n)
    islands = []
    for label in np.unique(labels[bus_on]):
        at = np.flatnonzero(labels == label)
        islands.append(at[ids[at].argsort()])
    islands.sort(key=lambda at: ids[at[0]])
    return on, islands
