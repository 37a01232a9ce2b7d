import pytest

from bcopt.core import Epsilon, preprocess_discard
from bcopt.cli import generate_instance
from bcopt.classes import class_partition, q_of
from bcopt.oracle import verify_representative
from bcopt.repset import rep_set

from conftest import free_instance


class TestRepSet:
    def test_empty_instance(self):
        rep = rep_set(free_instance([], []), Epsilon(1, 4))
        assert rep.elements == frozenset()
        assert rep.alpha == 0
        assert rep.layout is None

    def test_zero_profit_instance(self):
        rep = rep_set(free_instance([1, 1], [0, 0], budget=5), Epsilon(1, 4))
        assert rep.elements == frozenset()

    def test_tiny_classes_saturate(self):
        inst = preprocess_discard(generate_instance(8, 8, "matching"))
        rep = rep_set(inst, Epsilon(1, 4), alpha_mode="exact")
        classed = {
            i for ids in class_partition(inst, rep.layout).values() for i in ids
        }
        # classes far below the size caps: everything classed is kept
        assert rep.elements == classed

    def test_elements_union_of_per_class(self):
        inst = preprocess_discard(generate_instance(9, 10, "matroid-intersection"))
        rep = rep_set(inst, Epsilon(1, 5), alpha_mode="exact")
        union = frozenset().union(*rep.per_class.values()) \
            if rep.per_class else frozenset()
        assert rep.elements == union
        assert rep.elements <= inst.ids

    def test_size_bound_at_gamma_two(self):
        eps = Epsilon(1, 3)
        q = q_of(eps)
        for seed in range(6):
            inst = preprocess_discard(generate_instance(seed, 12, "matching"))
            rep = rep_set(inst, eps, alpha_mode="exact")
            assert rep.size <= 54 * q**3

    @pytest.mark.parametrize("seed", [0, 3, 11, 17])
    def test_representative_property_random_matching(self, seed):
        inst = preprocess_discard(generate_instance(seed, 10, "matching"))
        eps = Epsilon(1, 4)
        rep = rep_set(inst, eps, alpha_mode="exact")
        report = verify_representative(inst, eps, rep.elements)
        assert report.passed, report.counterexample

    @pytest.mark.parametrize("seed", [1001, 1005, 1013])
    def test_representative_property_random_intersection(self, seed):
        inst = preprocess_discard(generate_instance(seed, 9, "matroid-intersection"))
        eps = Epsilon(1, 4)
        for mode in ("exact", "lagrangian"):
            rep = rep_set(inst, eps, alpha_mode=mode)
            report = verify_representative(inst, eps, rep.elements)
            assert report.passed, (mode, report.counterexample)
