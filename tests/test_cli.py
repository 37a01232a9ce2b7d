import dataclasses
import json
import re
import subprocess
import sys

import pytest

import bcopt.cli
import bcopt.core
import bcopt.enumeration
import bcopt.lagrange
import bcopt.oracle
from bcopt.cli import (
    EXIT_CAP_OVERFLOW,
    EXIT_GUARD_EXCEEDED,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    build_parser,
    dump_instance,
    generate_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    main,
)
from bcopt.core import Epsilon, InvalidParameterError, preprocess_discard


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "bcopt.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_instance(tmp_path, instance, name="inst.json"):
    path = tmp_path / name
    path.write_text(dump_instance(instance))
    return path


class TestGen:
    def test_size_zero_is_empty_and_valid(self):
        inst = generate_instance(1, 0, "matching")
        assert inst.elements == ()

    def test_same_seed_same_bytes(self):
        a = dump_instance(generate_instance(9, 12, "matroid-intersection"))
        b = dump_instance(generate_instance(9, 12, "matroid-intersection"))
        assert a == b

    def test_gen_cli_round_trips_through_parser(self, tmp_path):
        out = tmp_path / "g.json"
        code, _, _ = run_cli(["gen", "--seed", "7", "--size", "12",
                              "--kind", "matching", "--out", str(out)])
        assert code == EXIT_OK
        assert len(load_instance(out).elements) == 12

    def test_out_into_a_missing_directory_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["gen", "--seed", "7", "--size", "4", "--kind", "matching",
                     "--out", str(out)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
        assert not out.parent.exists()

    @pytest.mark.parametrize("kind", ["matching", "matroid-intersection"])
    def test_round_trip_identity(self, kind):
        inst = generate_instance(3, 10, kind)
        again = instance_from_json(instance_to_json(inst))
        assert dump_instance(again) == dump_instance(inst)
        assert again.budget == inst.budget
        assert again.ids == inst.ids


def _matching_json():
    return {"elements": [{"id": 0, "cost": 3, "profit": 4}, {"id": 1, "cost": 2, "profit": 5}],
            "constraint": {"type": "matching", "vertices": 3, "edges": {"0": [0, 1], "1": [1, 2]}},
            "budget": 6}


def _intersection_json():
    data = _matching_json()
    data["constraint"] = {"type": "matroid_intersection", "matroids": [
        {"kind": "uniform", "rank": 1},
        {"kind": "partition", "blocks": [[0], [1]], "capacities": [1, 1]},
    ]}
    return data


def _graphic_json():
    data = _intersection_json()
    data["constraint"]["matroids"][0] = {"kind": "graphic", "vertices": 3,
                                         "edges": {"0": [0, 1], "1": [1, 2]}}
    return data


def _set(data, path, value):
    *head, last = path
    for key in head:
        data = data[key]
    data[last] = value


# (instance maker, edit, message): one structural fault per row.
STRUCTURAL_FILE_FAULTS = {
    "matching endpoint out of range": (
        _matching_json, lambda d: _set(d, ("constraint", "edges", "1"), [1, 3]),
        "edge 1 endpoint out of range"),
    "graphic endpoint out of range": (
        _graphic_json, lambda d: _set(d, ("constraint", "matroids", 0, "edges", "0"), [0, 5]),
        "edge 0 endpoint out of range"),
    "dangling edge": (
        _matching_json, lambda d: _set(d, ("constraint", "edges", "7"), [0, 2]),
        r"ids \[7\] have no element"),
    "element with no edge": (
        _matching_json, lambda d: d["constraint"]["edges"].pop("1"),
        r"elements \[1\] are not in the constraint"),
    "graphic edge without an element": (
        _graphic_json, lambda d: _set(d, ("constraint", "matroids", 0, "edges", "7"), [0, 2]),
        "different ground sets"),
    "element missing from the graphic matroid": (
        _graphic_json, lambda d: d["constraint"]["matroids"][0]["edges"].pop("1"),
        "different ground sets"),
    "partition block outside the ground set": (
        _intersection_json, lambda d: _set(d, ("constraint", "matroids", 1, "blocks", 1), [1, 5]),
        "outside the ground set"),
    "overlapping partition blocks": (
        _intersection_json, lambda d: _set(d, ("constraint", "matroids", 1, "blocks", 1), [0, 1]),
        "not disjoint at id 0"),
    "partition capacity count": (
        _intersection_json, lambda d: _set(d, ("constraint", "matroids", 1, "capacities"), [1]),
        "one capacity per block"),
    "duplicate element ids": (
        _matching_json, lambda d: _set(d, ("elements", 1, "id"), 0),
        r"duplicate element ids \[0\]"),
}


# (instance maker, path to one number); every number of the file format is covered.
NUMBER_FIELDS = [
    (_matching_json, ("elements", 0, "id")),
    (_matching_json, ("elements", 1, "cost")),
    (_matching_json, ("elements", 0, "profit")),
    (_matching_json, ("budget",)),
    (_matching_json, ("constraint", "vertices")),
    (_matching_json, ("constraint", "edges", "1", 0)),
    (_intersection_json, ("constraint", "matroids", 0, "rank")),
    (_intersection_json, ("constraint", "matroids", 1, "capacities", 0)),
    (_intersection_json, ("constraint", "matroids", 1, "blocks", 1, 0)),
    (_graphic_json, ("constraint", "matroids", 0, "vertices")),
    (_graphic_json, ("constraint", "matroids", 0, "edges", "0", 1)),
]


class TestInstanceFromJson:
    @pytest.mark.parametrize("make", [_matching_json, _intersection_json, _graphic_json])
    def test_integer_files_load(self, make):
        inst = instance_from_json(make())
        assert inst.budget == 6
        assert inst.ids == frozenset({0, 1})

    @pytest.mark.parametrize("make,path", NUMBER_FIELDS)
    @pytest.mark.parametrize("value", [2.5, 1.0, True, "1"])
    def test_non_integer_numbers_are_refused(self, make, path, value):
        data = make()
        _set(data, path, value)
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            instance_from_json(data)

    @pytest.mark.parametrize("make,path", [(_matching_json, ("constraint", "edges")),
                                           (_graphic_json, ("constraint", "matroids", 0, "edges"))])
    @pytest.mark.parametrize("key", ["01", "+1", " 1", "1 ", "1_0", "1.0", "\u0661", ""])
    def test_non_canonical_edge_ids_are_refused(self, make, path, key):
        data = make()
        edges = data
        for step in path:
            edges = edges[step]
        edges[key] = edges.pop("1")
        with pytest.raises(InvalidParameterError, match="edge id"):
            instance_from_json(data)

    @pytest.mark.parametrize("make,path", [(_matching_json, ("constraint", "edges")),
                                           (_graphic_json, ("constraint", "matroids", 0, "edges"))])
    def test_edges_as_a_list_are_a_malformed_file(self, tmp_path, capsys, make, path):
        data = make()
        _set(data, path, [[0, 1], [1, 2]])
        with pytest.raises(InvalidParameterError, match="malformed instance file: edges must be"):
            instance_from_json(data)
        file = tmp_path / "list.json"
        file.write_text(json.dumps(data))
        assert main(["solve", str(file), "--epsilon", "1/4"]) == EXIT_INVALID_INPUT
        assert "error: malformed instance file" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", sorted(STRUCTURAL_FILE_FAULTS))
    def test_structural_faults_are_invalid_input(self, tmp_path, capsys, fault):
        make, edit, message = STRUCTURAL_FILE_FAULTS[fault]
        data = make()
        edit(data)
        file = tmp_path / "fault.json"
        file.write_text(json.dumps(data))
        assert main(["solve", str(file), "--epsilon", "1/4"]) == EXIT_INVALID_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert re.search(message, err)

    @pytest.mark.parametrize("fault", ["dangling edge", "element with no edge",
                                       "duplicate element ids", "budget"])
    def test_instance_refusals_carry_the_file_prefix(self, fault):
        # The instance's own refusals read like the element and constraint
        # constructors' ones.
        if fault == "budget":
            data = _matching_json()
            data["budget"] = -1
            message = "budget must be non-negative"
        else:
            make, edit, message = STRUCTURAL_FILE_FAULTS[fault]
            data = make()
            edit(data)
        with pytest.raises(InvalidParameterError,
                           match="^malformed instance file: .*" + message):
            instance_from_json(data)

    def test_a_dangling_edge_id_is_a_malformed_file(self, tmp_path, capsys):
        data = _matching_json()
        data["constraint"]["edges"]["7"] = [0, 2]
        file = tmp_path / "dangling.json"
        file.write_text(json.dumps(data))
        assert main(["solve", str(file), "--epsilon", "1/4"]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == (
            "error: malformed instance file: the constraint's ids are not the element ids: "
            "ids [7] have no element, elements [] are not in the constraint\n")

    def test_a_self_loop_file_solves_without_the_loop(self, tmp_path, capsys):
        # The loop is the cheapest and most profitable edge, and never feasible.
        data = _matching_json()
        data["elements"].append({"id": 2, "cost": 1, "profit": 100})
        data["constraint"]["edges"]["2"] = [2, 2]
        file = tmp_path / "loop.json"
        file.write_text(json.dumps(data))
        assert main(["solve", str(file), "--epsilon", "1/4"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["solution_ids"] == [1]
        assert record["profit"] == 5

    def test_two_spellings_of_one_edge_id_are_refused(self, tmp_path):
        # int() reads "1" and "01" as the same id: the second edge would
        # silently replace the first, and the file would still load.
        data = _matching_json()
        data["constraint"]["edges"]["01"] = [0, 2]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path), "--epsilon", "1/4"]) == EXIT_INVALID_INPUT


class TestSolveCmd:
    def test_brute_matches_record(self, tmp_path):
        from bcopt.oracle import brute_force_opt

        inst = generate_instance(2, 8, "matching")
        path = write_instance(tmp_path, inst)
        code, out, _ = run_cli(["solve", str(path), "--epsilon", "1/4", "--mode", "brute"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["profit"] == brute_force_opt(inst).total_profit
        assert record["gamma"] == "1"  # the brute force's alpha is OPT

    def test_solve_record_fields(self, tmp_path):
        inst = generate_instance(4, 9, "matroid-intersection")
        path = write_instance(tmp_path, inst)
        code, out, _ = run_cli(["solve", str(path), "--epsilon", "1/10"])
        assert code == EXIT_OK
        record = json.loads(out)
        for key in ("instance", "epsilon", "solution_ids", "profit", "cost",
                    "alpha", "gamma", "rep_size", "enumerated", "ms_total"):
            assert key in record
        assert record["epsilon"] == "1/10"
        assert record["gamma"] == "4"  # lagrange.GAMMA

    def test_epsilon_one_is_usage_error(self, tmp_path):
        inst = generate_instance(2, 6, "matching")
        path = write_instance(tmp_path, inst)
        code, _, err = run_cli(["solve", str(path), "--epsilon", "1/1"])
        assert code == EXIT_INVALID_INPUT
        assert "epsilon" in err

    def test_missing_file_is_invalid_input(self):
        code, _, _ = run_cli(["solve", "/nonexistent.json", "--epsilon", "1/4"])
        assert code == EXIT_INVALID_INPUT

    def test_fractional_budget_is_invalid_input(self, tmp_path):
        data = instance_to_json(generate_instance(2, 6, "matching"))
        data["budget"] = 6.9
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["solve", str(path), "--epsilon", "1/4"])
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "budget must be an integer" in err

    def test_subset_cap_overflow_exit_code(self, tmp_path):
        inst = generate_instance(11, 12, "matroid-intersection")
        path = write_instance(tmp_path, inst)
        code, _, err = run_cli(["solve", str(path), "--epsilon", "1/4",
                                "--subset-cap", "2"])
        assert code == EXIT_CAP_OVERFLOW
        assert "cap" in err

    def test_negative_subset_cap_is_invalid_input(self, tmp_path, capsys):
        path = write_instance(tmp_path, generate_instance(11, 6, "matching"))
        assert main(["solve", str(path), "--epsilon", "1/4",
                     "--subset-cap", "-1"]) == EXIT_INVALID_INPUT
        assert "subset cap must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--threads", "4"], ["--mode", "eptas"],
                                       ["--alpha", "exact"], ["--branch-budget", "5"],
                                       ["--force-heuristic"]])
    def test_removed_options_are_usage_errors(self, extra):
        for command in (["solve", "inst.json"], ["bench", "corpus"],
                        ["verify", "inst.json", "--property", "representative"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([*command, "--epsilon", "1/4", *extra])
            assert exc.value.code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("command", [
        ["solve", "inst.json", "--epsilon", "1/4", "--mode", "brute", "--guard"],
        ["verify", "inst.json", "--epsilon", "1/4", "--property", "npsolver", "--guard"],
        ["verify", "inst.json", "--epsilon", "1/4", "--property", "weak-exchange", "--trials"],
        ["bench", "corpus", "--guard"],
    ])
    @pytest.mark.parametrize("value", ["-1", "-5", "1.5", "x"])
    def test_counts_must_be_non_negative_integers(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, value])
        assert exc.value.code == EXIT_INVALID_INPUT
        assert f"must be a non-negative integer, got '{value}'" in capsys.readouterr().err


# Files that cannot be read as JSON: bytes that are not UTF-8, arrays nested
# deeper than the parser recurses, and an integer past Python's digit limit.
UNREADABLE = {"not-utf8": b'{"budget": "\xff"}', "deep": b"[" * 100_000 + b"]" * 100_000,
              "long-int": b'{"budget": ' + b"1" * 5000 + b"}"}


@pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE)
@pytest.mark.parametrize("command", [["solve"], ["verify", "--property", "npsolver"]])
def test_an_unreadable_file_is_invalid_input(tmp_path, capsys, command, content):
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    assert main([command[0], str(path), "--epsilon", "1/4", *command[1:]]) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read instance file {path}: ")


class TestVerifyCmd:
    def test_axioms_pass(self, tmp_path):
        inst = generate_instance(15, 7, "matroid-intersection")
        path = write_instance(tmp_path, inst)
        code, out, _ = run_cli(["verify", str(path), "--epsilon", "1/4",
                                "--property", "axioms"])
        assert code == EXIT_OK
        assert all(json.loads(line)["passed"] for line in out.splitlines())

    def test_axioms_on_matching_is_usage_error(self, tmp_path):
        inst = generate_instance(15, 6, "matching")
        path = write_instance(tmp_path, inst)
        code, _, _ = run_cli(["verify", str(path), "--epsilon", "1/4",
                              "--property", "axioms"])
        assert code == EXIT_INVALID_INPUT

    def test_injected_bad_exchange_set_fails(self, tmp_path):
        from bcopt.classes import ClassLayout, class_partition
        from bcopt.core import Epsilon, preprocess_discard
        from bcopt.oracle import brute_force_opt

        # all profits equal -> a single non-empty class; an empty X cannot
        # serve any feasible set holding one of its elements
        inst = generate_instance(16, 6, "matching")
        elements = [{"id": e.id, "cost": e.cost, "profit": 50} for e in inst.elements]
        data = instance_to_json(inst)
        data["elements"] = elements
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(data))
        flat = preprocess_discard(load_instance(path))
        alpha = brute_force_opt(flat).total_profit
        layout = ClassLayout(Epsilon(1, 4), alpha)
        (r,) = class_partition(flat, layout)
        code, out, _ = run_cli(["verify", str(path), "--epsilon", "1/4",
                                "--property", "exchange",
                                "--x-ids", "", "--class-index", str(r)])
        assert code == EXIT_VERIFY_FAILED
        report = json.loads(out.splitlines()[0])
        assert not report["passed"]
        assert "counterexample" in report

    @pytest.mark.parametrize("extra,message", [
        (["--x-ids", "1,a", "--class-index", "1"], "--x-ids: must list integer ids, got '1,a'"),
        (["--x-ids", "1", "--class-index", "99"], "--x-ids needs a --class-index in 1..8, got 99"),
    ])
    def test_bad_exchange_arguments_are_invalid_input(self, tmp_path, extra, message):
        path = write_instance(tmp_path, generate_instance(16, 6, "matching"))
        code, out, err = run_cli(["verify", str(path), "--epsilon", "1/4",
                                  "--property", "exchange", *extra])
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert message in err

    def test_class_index_is_checked_when_every_profit_is_zero(self, tmp_path):
        # alpha is 0 here, so no class layout is built.
        path = write_instance(tmp_path, generate_instance(3, 6, "matching", profit_range=(0, 0)))
        code, out, err = run_cli(["verify", str(path), "--epsilon", "1/4",
                                  "--property", "exchange", "--x-ids", "1",
                                  "--class-index", "99"])
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "--x-ids needs a --class-index in 1..8, got 99" in err

    @pytest.mark.parametrize("kind,seed", [("matroid-intersection", 17), ("matching", 22)])
    def test_exchange_constructor_output_passes(self, tmp_path, kind, seed):
        inst = generate_instance(seed, 8, kind)
        path = write_instance(tmp_path, inst)
        code, out, _ = run_cli(["verify", str(path), "--epsilon", "1/4",
                                "--property", "exchange"])
        assert code == EXIT_OK

    def test_representative_passes(self, tmp_path):
        inst = generate_instance(18, 9, "matching")
        path = write_instance(tmp_path, inst)
        code, _, _ = run_cli(["verify", str(path), "--epsilon", "1/4",
                              "--property", "representative"])
        assert code == EXIT_OK

    def test_guard_exceeded_exit_code(self, tmp_path):
        inst = generate_instance(19, 12, "matching")
        path = write_instance(tmp_path, inst)
        code, _, _ = run_cli(["verify", str(path), "--epsilon", "1/4",
                              "--property", "representative", "--guard", "5"])
        assert code == EXIT_GUARD_EXCEEDED

    def test_exact_alpha_is_guarded(self, tmp_path, monkeypatch):
        # 60 edges: far above the guard, so no brute force may start.
        def no_brute_force(instance):
            raise AssertionError("brute force ran above the guard")

        for module in (bcopt.enumeration, bcopt.lagrange, bcopt.oracle):
            monkeypatch.setattr(module, "max_profit_solution_ids", no_brute_force)
        path = write_instance(tmp_path, generate_instance(3, 60, "matching"))
        assert main(["verify", str(path), "--epsilon", "1/4",
                     "--property", "representative"]) == EXIT_GUARD_EXCEEDED

    def test_weak_exchange_and_replacement_and_npsolver(self, tmp_path):
        inst = generate_instance(20, 7, "matroid-intersection")
        path = write_instance(tmp_path, inst)
        for prop in ("weak-exchange", "replacement", "npsolver"):
            code, out, err = run_cli(["verify", str(path), "--epsilon", "1/4",
                                      "--property", prop])
            assert code == EXIT_OK, (prop, err)

    def test_npsolver_checks_the_lagrangian_search_within_the_exact_limit(
            self, tmp_path, capsys, monkeypatch):
        # 18 elements, so the brute force would answer for non_profitable_solver;
        # an approx_opt that returns nothing must still fail the contract.
        inst = generate_instance(7, 18, "matching", profit_range=(1, 10), budget_percent=20)
        assert len(inst.elements) <= bcopt.lagrange.EXACT_LIMIT
        path = write_instance(tmp_path, inst)
        args = ["verify", str(path), "--epsilon", "1/4", "--property", "npsolver"]
        assert main(args) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(bcopt.oracle, "approx_opt",
                            lambda instance: bcopt.core.Solution((), 0, 0))
        assert main(args) == EXIT_VERIFY_FAILED
        record = json.loads(capsys.readouterr().out)
        assert record["counterexample"]["profit"] == 0 < record["counterexample"]["bound"]

    def test_replacement_reads_the_representative_set(self, tmp_path, capsys, monkeypatch):
        # With R emptied, the first bounded feasible S holding a profitable
        # element has no substitution in R, and the record names it.  At
        # eps = 1/4 this file has no profitable element; at 1/10 it has
        # seven, which the passing record names.
        inst = generate_instance(7, 14, "matching")
        path = write_instance(tmp_path, inst)
        args = ["verify", str(path), "--epsilon", "1/10", "--property", "replacement"]
        assert main(args) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {
            "property": "replacement", "passed": True, "profitable": 7}
        rep_set = bcopt.cli.rep_set

        def emptied(*args, **kwargs):
            return dataclasses.replace(rep_set(*args, **kwargs), elements=frozenset())

        monkeypatch.setattr(bcopt.cli, "rep_set", emptied)
        assert main(args) == EXIT_VERIFY_FAILED
        working = preprocess_discard(inst)
        h = bcopt.oracle.profitable_set(working, Epsilon(1, 10))
        first = next(s for s in bcopt.oracle.iter_feasible_sets(working) if s & h)
        assert json.loads(capsys.readouterr().out) == {
            "property": "replacement", "passed": False,
            "counterexample": {"s": sorted(first), "z": None,
                               "failed": ["no substitution in R"]},
        }

    # replacement: OPT once, which gives H and R, for every bounded feasible
    # S; its record names |H|, empty on this file at eps = 1/4.
    # representative: alpha = OPT in the CLI, handed to the verifier, then
    # the instance restricted to R.
    @pytest.mark.parametrize("prop,name,calls", [("replacement", "replacement", 1),
                                                 ("representative", "representative-set", 2)])
    def test_brute_force_runs_a_fixed_number_of_times(self, tmp_path, capsys, monkeypatch,
                                                       prop, name, calls):
        seen = []
        brute_force_opt = bcopt.oracle.brute_force_opt

        def counted(instance, guard=bcopt.oracle.DEFAULT_GUARD):
            seen.append(instance)
            return brute_force_opt(instance, guard)

        monkeypatch.setattr(bcopt.oracle, "brute_force_opt", counted)
        path = write_instance(tmp_path, generate_instance(7, 14, "matching"))
        assert main(["verify", str(path), "--epsilon", "1/4", "--property", prop]) == EXIT_OK
        record = {"property": name, "passed": True}
        if prop == "replacement":
            record["profitable"] = 0
        assert json.loads(capsys.readouterr().out) == record
        assert len(seen) == calls


class TestBenchCmd:
    def test_empty_corpus_header_only(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(["bench", str(corpus), "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines == ["instance,epsilon,opt,profit,ratio,rep_size,enumerated,alpha,gamma,ms_total"]

    @pytest.mark.parametrize("corpus,out,message", [
        ("missing", None, "corpus {tmp}/missing is not a directory"),
        ("file.json", None, "corpus {tmp}/file.json is not a directory"),
        ("corpus", "missing/bench.csv", "cannot write {tmp}/missing/bench.csv"),
        ("broken", None, "cannot read instance file {tmp}/broken/b.json"),
        ("not-utf8", None, "cannot read instance file {tmp}/not-utf8/b.json"),
        ("deep", None, "cannot read instance file {tmp}/deep/b.json"),
        ("long-int", None, "cannot read instance file {tmp}/long-int/b.json"),
    ])
    def test_bad_paths_are_refused_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                     corpus, out, message):
        # "a.json" sorts first, so a lazy bench would solve it before it met b.json.
        broken = {"broken": b"{", **UNREADABLE}
        for name in ("corpus", *broken):
            (tmp_path / name).mkdir()
            write_instance(tmp_path / name, generate_instance(21, 8, "matching"), "a.json")
        for name, content in broken.items():
            (tmp_path / name / "b.json").write_bytes(content)
        write_instance(tmp_path, generate_instance(21, 8, "matching"), "file.json")

        def no_solve(*args, **kwargs):
            raise AssertionError("an instance was solved before every path was checked")

        monkeypatch.setattr(bcopt.oracle, "brute_force_opt", no_solve)
        monkeypatch.setattr(bcopt.cli, "solve_detailed", no_solve)
        args = ["bench", str(tmp_path / corpus)]
        if out:
            args += ["--out", str(tmp_path / out)]
        assert main(args) == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message.format(tmp=tmp_path))

    def test_an_oversize_later_file_is_refused_before_any_solve(self, tmp_path, capsys,
                                                                 monkeypatch):
        # a.json is within the guard and sorts first; b.json is above it.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_instance(corpus, generate_instance(1, 8, "matching"), "a.json")
        write_instance(corpus, generate_instance(2, 30, "matching"), "b.json")

        def no_solve(*args, **kwargs):
            raise AssertionError("an instance was solved before every guard was checked")

        monkeypatch.setattr(bcopt.oracle, "brute_force_opt", no_solve)
        monkeypatch.setattr(bcopt.cli, "solve_detailed", no_solve)
        assert main(["bench", str(corpus), "--guard", "20"]) == EXIT_GUARD_EXCEEDED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: instance has 30 elements, above the guard of 20\n"

    def test_single_instance_row(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_instance(corpus, generate_instance(21, 8, "matching"), "a.json")
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(["bench", str(corpus), "--epsilon", "1/10",
                              "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "a.json"
        assert row[1] == "1/10"
        assert float(row[4]) >= 1 - 1 / 10

    def test_all_ratio_cells_meet_the_guarantee(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed, kind in ((31, "matching"), (32, "matroid-intersection"), (33, "matching")):
            write_instance(corpus, generate_instance(seed, 9, kind), f"i{seed}.json")
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(["bench", str(corpus), "--epsilon", "1/10",
                              "--epsilon", "1/4", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            cells = line.split(",")
            eps = {"1/10": 0.1, "1/4": 0.25}[cells[1]]
            assert float(cells[4]) >= 1 - eps
