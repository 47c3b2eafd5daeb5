"""The packed-key Stage 1 build against the lexsort reference.

``EquationGraph`` sorts its contributions by one packed ``int64`` key
``(group·n + row)·n + col`` with a stable ``argsort``;
:class:`tests.graph_reference.ReferenceGraph` is the three-key ``lexsort``
build it replaced.  Both sorts are stable over the same total order, so
every retained array's values and shape, and the ``graph_host`` charge,
must be identical, on the turbine meshes and on random specs.  The dtype
is the one thing that differs: the reference keeps every array ``int64``,
while the build stores its rank-local indices at the width
:func:`~repro.linalg.parcsr.index_dtype` gives for the graph's sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly import EquationGraph, GraphSpec
from repro.comm import SimWorld
from repro.linalg import index_dtype
from repro.partition import build_numbering
from tests.graph_reference import ReferenceGraph, graph_arrays

#: The retained arrays that are rank-local indices (lists by their name).
LOCAL_INDICES = {
    "edge_slots",
    "diag_slots",
    "fringe_slots",
    "u_row",
    "u_col",
    "rhs_edge_rows",
    "rhs_edge_src",
    "rhs_edge_slot",
    "rhs_shared_rows",
}


def index_width(spec):
    """The rule's dtype for a graph of ``spec``: ids below ``n``, slots
    below the contribution bound ``4E + n + 8·fringe``, edge-RHS positions
    below ``2E``."""
    E = spec.edges.shape[0]
    fringe = spec.fringe_rows
    n_fringe = fringe.size if spec.coupled_fringe and fringe is not None else 0
    return np.dtype(index_dtype(spec.n, 4 * E + spec.n + 8 * n_fringe, 2 * E))


def assert_same_graph(numbering, spec):
    worlds = SimWorld(numbering.nranks), SimWorld(numbering.nranks)
    got = graph_arrays(EquationGraph(worlds[0], numbering, spec))
    want = graph_arrays(ReferenceGraph(worlds[1], numbering, spec))
    assert got.keys() == want.keys()
    for name, ref in want.items():
        value = got[name]
        if isinstance(ref, np.ndarray):
            if name.split("[")[0] in LOCAL_INDICES:
                assert value.dtype == index_width(spec), name
            else:
                assert value.dtype == ref.dtype, name
            assert value.shape == ref.shape, name
            assert np.array_equal(value.astype(ref.dtype), ref), name
        else:
            assert value == ref, name
    assert worlds[0].ops.state_dict() == worlds[1].ops.state_dict()


def test_the_index_width_rule_turns_at_two_to_the_31():
    assert index_dtype(0) is np.int32
    assert index_dtype(2**31 - 1) is np.int32
    assert index_dtype(2**31) is np.int64
    assert index_dtype(5, 2**31 - 1, 7) is np.int32
    assert index_dtype(5, 2**31, 7) is np.int64


@pytest.mark.parametrize(
    "workload,nranks",
    [("turbine_tiny", 2), ("turbine_low", 4), ("turbine_low", 12)],
)
def test_turbine_graphs_match_the_reference(workload, nranks):
    from repro.core import CompositeMesh, SimulationConfig
    from repro.core.physics import (
        MomentumSystem,
        PressurePoissonSystem,
        ScalarTransportSystem,
    )
    from repro.mesh import make_workload

    cfg = SimulationConfig(nranks=nranks)
    comp = CompositeMesh(
        SimWorld(nranks), make_workload(workload), cfg.partition_method
    )
    for cls in (MomentumSystem, PressurePoissonSystem, ScalarTransportSystem):
        eq = cls(comp, cfg)
        spec = GraphSpec(
            n=comp.n, edges=comp.edges, constraint_rows=eq.constraint_rows()
        )
        assert_same_graph(comp.numbering, spec)


def test_retained_arrays_own_their_memory():
    """No retained array is a view pinning a larger build buffer."""
    rng = np.random.default_rng(3)
    n = 50
    fringe = np.array([4, 9, 30])
    spec = GraphSpec(
        n=n,
        edges=rng.integers(0, n, size=(120, 2)),
        constraint_rows=np.array([0, 4, 9, 30]),
        fringe_rows=fringe,
        fringe_donors=rng.integers(0, n, size=(3, 8)),
        coupled_fringe=True,
    )
    g = EquationGraph(SimWorld(3), build_numbering(rng.integers(0, 3, n), 3), spec)
    for name, arr in graph_arrays(g).items():
        if isinstance(arr, np.ndarray):
            root = arr
            while root.base is not None:
                root = root.base
            assert root.nbytes == arr.nbytes, name


@st.composite
def specs(draw):
    n = draw(st.integers(1, 40))
    nranks = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(draw(st.integers(0, 80)), 2))
    if edges.size and draw(st.booleans()):  # repeated edges
        edges = np.concatenate([edges, edges[: draw(st.integers(1, 10))]])
    constrained = draw(st.sampled_from(["none", "all", "some"]))
    if constrained == "none":
        cons = np.zeros(0, dtype=np.int64)
    elif constrained == "all":
        cons = np.arange(n, dtype=np.int64)
    else:
        cons = np.unique(rng.integers(0, n, size=rng.integers(1, n + 1)))
    fringe = donors = None
    coupled = cons.size > 0 and draw(st.booleans())
    if coupled:
        fringe = cons[: draw(st.integers(1, cons.size))]
        donors = rng.integers(0, n, size=(fringe.size, 8))
    parts = rng.integers(0, nranks, n)
    spec = GraphSpec(
        n=n,
        edges=edges,
        constraint_rows=cons,
        fringe_rows=fringe,
        fringe_donors=donors,
        coupled_fringe=coupled,
    )
    return build_numbering(parts, nranks), spec


@settings(max_examples=200, deadline=None)
@given(case=specs())
def test_random_graphs_match_the_reference(case):
    assert_same_graph(*case)


def test_ids_stay_32_bit_where_their_packed_key_is_not(monkeypatch):
    """With n² ≥ 2³¹ the packed key overflows 32 bits but no id does:
    the sort sees an ``int64`` key, the retained ids are ``int32`` and
    every array equals the reference's."""
    n = 46_341
    assert n * n >= 2**31
    rng = np.random.default_rng(11)
    cons = np.unique(rng.integers(0, n, size=300))
    fringe = cons[:40]
    spec = GraphSpec(
        n=n,
        edges=rng.integers(0, n, size=(3000, 2)),
        constraint_rows=cons,
        fringe_rows=fringe,
        fringe_donors=rng.integers(0, n, size=(fringe.size, 8)),
        coupled_fringe=True,
    )
    numbering = build_numbering(rng.integers(0, 3, n), 3)
    assert index_width(spec) == np.int32

    keys = []
    argsort = np.argsort

    def spy(a, *args, **kw):
        keys.append(a.dtype)
        return argsort(a, *args, **kw)

    monkeypatch.setattr(np, "argsort", spy)
    graph = EquationGraph(SimWorld(3), numbering, spec)
    monkeypatch.undo()
    assert keys == [np.dtype(np.int64)]
    assert graph.u_row.dtype == graph.u_col.dtype == np.int32
    assert_same_graph(numbering, spec)
