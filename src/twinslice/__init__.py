"""Deterministic packet-level simulator for hierarchical digital twins on sliced networks.

The modules are the API: import each layer (engine, metrics, network, slices,
twins, workloads, scenario, sim, cli) from its own module.
"""
