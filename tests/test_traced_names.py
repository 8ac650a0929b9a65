"""The benchmark traces program functions by name: each must still exist."""

import importlib

from relaybench.tracing import LAYERS

# absent before this test was written, and amend_pairing (the subgradient
# method's pairing repair, 0 calls on every workload before its removal);
# a benchmark change may drop them
KNOWN_ABSENT = {"relaypair.kernels:total_phase1", "relaypair.kernels:ind_phase1",
                "relaypair.kernels:extra_phase1", "relaypair.kernels:extra_ind_phase1",
                "relaypair.pairing:greedy_assignment", "relaypair.pairing:amend_pairing"}


def test_every_traced_name_resolves():
    absent = set()
    for targets in LAYERS.values():
        for target in targets:
            module, name = target.split(":")
            if not hasattr(importlib.import_module(module), name):
                absent.add(target)
    assert absent <= KNOWN_ABSENT
