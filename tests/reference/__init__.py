"""Reference implementations the equivalence tests pin production code to.

Each module holds the plain per-flow / per-cell loop a vectorized kernel in
``src/repro`` replaced, written as straightforwardly as possible and with
no options. The tests assert bit-identity (``==``, never ``allclose``)
between a production kernel and its reference here; the golden digests in
``tests/test_goldens.py`` pin the end-to-end results on top.

* :mod:`reference.baselines` — the Figure 5 flow-level baselines with one
  ``rng.choice`` per flow;
* :mod:`reference.sssp` — per-source networkx Dijkstra routing;
* :mod:`reference.topology` — the networkx PoP graph, connectivity check,
  backbone spanning tree and peering graph;
* :mod:`reference.tables` — cell-by-cell cost-table build, the per-flow
  link rows a table's per-PoP paths stand for, their row-by-row CSR
  compile and the per-flow table subset;
* :mod:`reference.loads` — link loads, a per-flow-row load tracker,
  fractional loads and the LP's link-constraint triplets;
* :mod:`reference.evaluators` — load-aware and Fortz evaluators that
  recompute preferences one (flow, alternative) at a time;
* :mod:`reference.mapping` — the auto-scale mapper anchored by
  ``np.percentile`` at every quantile, 100 included;
* :mod:`reference.negotiation` — the masked-rescan stop rule, a proposal
  rule that keeps the session on its rescanning loop, and the
  min-and-remove win-win rollback;
* :mod:`reference.scenario` — scenario-aware scoring over materialized
  per-scenario tables;
* :mod:`reference.transit` — transit background by walking every demand.

One module holds no reference but a shared fixture:
:mod:`reference.oscillator` is the one synthetic two-cycle of the multi-ISP
coordinator (``FlipCoordinator``), which the oscillation and damping tests
and ``benchmarks/bench_smoke.py``'s damped re-drive kernel all run.
"""
