import gc
import weakref

import pytest

from bcopt.constraints import Matching
from bcopt.enumeration import (
    feasible_subsets_within_budget,
    max_profit_solution_ids,
    max_weight_feasible_ids,
)
from bcopt.oracle import iter_feasible_sets

from conftest import path_matching


SEARCHES = {
    "max_profit": max_profit_solution_ids,
    "max_weight": lambda inst: max_weight_feasible_ids(inst, inst.profit_of),
    "subsets": lambda inst: feasible_subsets_within_budget(inst, inst.sorted_ids(), 3),
    "iter": lambda inst: list(iter_feasible_sets(inst, 3)),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_state_is_freed_without_the_cycle_collector(name, monkeypatch):
    inst = path_matching(6, profits=[3, 1, 4, 1, 5, 9], budget=4)
    cursors = []
    original = Matching.cursor

    def tracking(self):
        cursor = original(self)
        cursors.append(weakref.ref(cursor))
        return cursor

    monkeypatch.setattr(Matching, "cursor", tracking)
    gc.disable()
    try:
        SEARCHES[name](inst)
        assert len(cursors) == 1
        assert cursors[0]() is None
    finally:
        gc.enable()
