"""Cache-correctness tests for the memoized evolution pipeline.

The hot path memoizes three layers: compiled processes (per process
instance, :mod:`repro.bpel.compile`), projected views (per public-aFSA
instance, :func:`repro.afsa.view.project_view`), and the choreography's
compiled-partner table.  These tests pin the invalidation story:
replacing a private process must evict its compiled entry — which is
also what invalidates its views, since a recompile serves a fresh aFSA
instance with an empty view memo — while leaving other partners'
entries intact.
"""

import gc
import weakref

from repro.bpel import compile as compile_module
from repro.bpel.compile import compile_process
from repro.core.choreography import Choreography
from repro.core.engine import EvolutionEngine
from repro.scenario.procurement import (
    ACCOUNTING,
    BUYER,
    LOGISTICS,
    accounting_private,
    accounting_private_variant_change,
    buyer_private,
    logistics_private,
)


def _procurement():
    choreography = Choreography("procurement")
    choreography.add_partner(buyer_private())
    choreography.add_partner(accounting_private())
    choreography.add_partner(logistics_private())
    return choreography


class TestCompileMemo:
    def test_same_instance_compiles_once(self):
        process = buyer_private()
        assert compile_process(process) is compile_process(process)

    def test_equal_but_distinct_instances_do_not_share(self):
        # Identity-keyed on purpose: a clone is about to be mutated.
        assert compile_process(buyer_private()) is not compile_process(
            buyer_private()
        )

    def test_clone_gets_fresh_cache(self):
        process = accounting_private()
        compiled = compile_process(process)
        clone = process.clone()
        assert compile_process(clone) is not compiled
        assert compile_process(clone).afsa == compiled.afsa

    def test_policy_is_part_of_the_key(self):
        process = buyer_private()
        default = compile_process(process)
        plain = compile_process(process, policy="none")
        assert plain is not default
        assert not plain.afsa.annotations

    def test_dead_versions_are_not_pinned_beyond_the_bound(self):
        # A dead version's compiled process, kernels and replay trie are
        # traversed by every full GC pass while the memo pins them.
        early = buyer_private()
        compile_process(early)
        early_ref = weakref.ref(early)
        del early
        for _ in range(compile_module._COMPILE_CACHE_MAX):
            compile_process(buyer_private())
        assert len(compile_module._COMPILE_CACHE) <= (
            compile_module._COMPILE_CACHE_MAX
        )
        gc.collect()
        assert early_ref() is None


class TestChoreographyMemo:
    def test_compiled_and_view_are_cached(self):
        choreography = _procurement()
        assert choreography.compiled(ACCOUNTING) is choreography.compiled(
            ACCOUNTING
        )
        assert choreography.view(BUYER, on=ACCOUNTING) is choreography.view(
            BUYER, on=ACCOUNTING
        )

    def test_replace_evicts_compiled_and_views_of_that_party(self):
        choreography = _procurement()
        old_compiled = choreography.compiled(ACCOUNTING)
        old_view = choreography.view(BUYER, on=ACCOUNTING)
        unrelated_view = choreography.view(ACCOUNTING, on=LOGISTICS)

        choreography.replace_private(
            ACCOUNTING, accounting_private_variant_change()
        )

        assert choreography.compiled(ACCOUNTING) is not old_compiled
        new_view = choreography.view(BUYER, on=ACCOUNTING)
        assert new_view is not old_view
        # The changed accounting process offers the new cancelOp branch.
        assert new_view != old_view
        # Views *on* unchanged parties survive the eviction.
        assert choreography.view(ACCOUNTING, on=LOGISTICS) is unrelated_view

    def test_replaced_process_is_actually_recompiled(self):
        choreography = _procurement()
        before = choreography.public(ACCOUNTING)
        choreography.replace_private(
            ACCOUNTING, accounting_private_variant_change()
        )
        after = choreography.public(ACCOUNTING)
        assert "cancelOp" in {
            label.operation for label in after.alphabet
        }
        assert before != after


class TestEngineUsesFreshState:
    def test_evolution_after_replacement_sees_new_version(self):
        """An engine step after an external replace must classify against
        the *new* partner view, not a stale cached one."""
        choreography = _procurement()
        engine = EvolutionEngine(choreography)
        # Warm every cache layer.
        choreography.check_consistency()

        report = engine.apply_private_change(
            ACCOUNTING,
            accounting_private_variant_change(),
            auto_adapt=True,
            commit=True,
        )
        assert report.public_changed
        assert report.impact_for(BUYER).consistent_after_adaptation
        # After commit the choreography serves the new public process…
        assert "cancelOp" in {
            label.operation
            for label in choreography.public(ACCOUNTING).alphabet
        }
        # …and a fresh consistency sweep runs on the evicted caches.
        fresh = choreography.check_consistency()
        assert len(fresh.checks) == 2
