import json

import numpy as np
import pytest

from polarchan import harness
from polarchan.harness import (
    build_example2_circuit,
    build_parser,
    generate_exact_instance,
    main,
    matrix_from_obj,
    matrix_to_obj,
    read_instance_file,
    read_matrix_file,
    write_instance_file,
    write_matrix_file,
)
from polarchan.matkit import random_density, random_unitary, unitarity_defect
from polarchan.search import SolverConfig, solve
from polarchan.tomo import RECONSTRUCT_TOL, ChannelOracle, reconstruct


def degenerate_density(n, seed):
    """Stands in for harness.random_density: the fully degenerate probe I/n."""
    return np.eye(n, dtype=complex) / n


class TestCircuitAndGates:
    def test_circuit_is_unitary(self):
        assert unitarity_defect(build_example2_circuit()) < 1e-12

    def test_circuit_entries(self):
        u = build_example2_circuit()
        assert u[0, 0] == 0.5
        assert set(np.unique(u.real)) == {-0.5, 0.0, 0.5}
        assert np.all(u.imag == 0.0)


class TestMatrixFiles:
    def test_round_trip_lossless(self, tmp_path):
        m = random_unitary(6, 0) * 1.7 + 1e-13 * random_unitary(6, 1)
        path = tmp_path / "m.json"
        write_matrix_file(path, m)
        back = read_matrix_file(path)
        assert np.array_equal(back, m)

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"n": 2, "re": [[1, 0], [0, 1]]})

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"n": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]})

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"n": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})

    @pytest.mark.parametrize("n", [None, [2], "2", 2.5, True])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match="must be an integer"):
            matrix_from_obj({"n": n, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})

    def test_rejects_non_finite(self):
        # the shared non-finite message; an infinite im is caught before 1j * inf forms a NaN
        with pytest.raises(ValueError, match="^matrix re has non-finite entries$"):
            matrix_from_obj({"n": 1, "re": [[float("nan")]], "im": [[0.0]]})
        with pytest.raises(ValueError, match="^matrix im has non-finite entries$"):
            matrix_from_obj({"n": 1, "re": [[0.5]], "im": [[float("inf")]]})

    def test_obj_round_trip(self):
        m = random_density(3, 2)
        assert np.array_equal(matrix_from_obj(matrix_to_obj(m)), m)

    @pytest.mark.parametrize(
        "doc, match",
        [
            ([], "top-level 'pairs' list"),
            ({"pair": []}, "top-level 'pairs' list"),
            ({"pairs": {}}, "top-level 'pairs' list"),
            ({"pairs": [{"rho": matrix_to_obj(np.eye(2))}]}, "pair 0 needs 'rho' and 'sigma'"),
            ({"pairs": [{"sigma": matrix_to_obj(np.eye(2))}]}, "pair 0 needs 'rho' and 'sigma'"),
            ({"pairs": [[]]}, "pair 0 needs 'rho' and 'sigma'"),
        ],
    )
    def test_instance_file_rejects_bad_layout(self, tmp_path, doc, match):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            read_instance_file(path)

    def test_instance_file_round_trip(self, tmp_path):
        inst = generate_exact_instance(3, 2, 5)
        path = tmp_path / "inst.json"
        write_instance_file(path, inst.pairs)
        back = read_instance_file(path)
        assert len(back) == 2
        for (r1, s1), (r2, s2) in zip(inst.pairs, back):
            assert np.array_equal(r1, r2)
            assert np.array_equal(s1, s2)


class TestCmdSolve:
    def test_generated_instance_defaults(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--n", "10", "--seed", "5", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged-tol"
        assert summary["final_objective"] < 1e-20
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "iter,objective,step_norm,residual"

    @pytest.mark.parametrize("n_pairs", [0, -1, -2])
    def test_generator_rejects_pair_count_below_one(self, n_pairs):
        with pytest.raises(ValueError, match=f"^n_pairs must be at least 1, got {n_pairs}$"):
            generate_exact_instance(3, n_pairs, 0)

    def test_trace_csv_matches_solve_result(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--n", "5", "--pairs", "2", "--seed", "13", "--out", str(out)]) == 0
        inst = generate_exact_instance(5, 2, 13)
        trace = solve(inst, SolverConfig()).trace
        rows = [r.split(",") for r in (out / "trace.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(trace)
        assert [int(r[0]) for r in rows] == list(range(len(trace)))
        for col, values in ((1, trace.objective), (2, trace.step_norm), (3, trace.residual)):
            assert [float(r[col]) for r in rows] == values.tolist()
        assert float(rows[0][2]) == 0.0

    def test_trivial_instance_exits_immediately(self, tmp_path):
        rho = random_density(4, 7)
        inst_path = tmp_path / "inst.json"
        write_instance_file(inst_path, [(rho, rho)])
        out = tmp_path / "run"
        code = main(["solve", "--in", str(inst_path), "--out", str(out)])
        assert code == 0
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) <= 3  # header + at most the start row and one update

    def test_malformed_file_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"pairs": [{"rho": {"n": 2, "re": [[1,0],[0]], "im": [[0,0],[0,0]]}, "sigma": {}}]}')
        code = main(["solve", "--in", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["solve", "--in", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_max_iters_exit_code(self, tmp_path):
        code = main([
            "solve", "--n", "8", "--seed", "1", "--max-iters", "3",
            "--tol", "1e-30", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["solve", "--n", "6", "--seed", "9", "--out", str(out)]) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        sa.pop("wall_time_s")
        sb.pop("wall_time_s")
        assert sa == sb

    def test_seed_defaults_to_zero_whatever_the_environment(self, tmp_path, monkeypatch):
        zero, unset = tmp_path / "zero", tmp_path / "unset"
        assert main(["solve", "--n", "4", "--seed", "0", "--out", str(zero)]) == 0
        # no environment variable stands in for --seed
        monkeypatch.setenv("POLARCHAN_SEED", "21")
        assert main(["solve", "--n", "4", "--out", str(unset)]) == 0
        assert (zero / "trace.csv").read_bytes() == (unset / "trace.csv").read_bytes()


class TestCmdReconstruct:
    def test_circuit_example2(self, tmp_path):
        out = tmp_path / "run"
        code = main(["reconstruct", "--circuit", "example2", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["normalized_diff"] < 1e-9
        assert report["budget_used"] <= 8 * 8 + 3 * 8
        assert (report["tomography_queries"], report["phase_queries"]) == (8 * 8 + 8, 2 * 7)
        assert set(report) >= {"u0", "v", "d", "u_recovered", "budget_used", "eigengap", "residual_on_tests"}

    def test_identity_channel_file(self, tmp_path):
        path = tmp_path / "id.json"
        write_matrix_file(path, np.eye(6, dtype=complex))
        out = tmp_path / "run"
        code = main(["reconstruct", "--in", str(path), "--seed", "5", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["normalized_diff"] < 1e-10

    def test_degenerate_probe_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "random_density", degenerate_density)
        code = main(["reconstruct", "--circuit", "example2", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "degenerate state" in capsys.readouterr().err

    def test_non_unitary_input_exits_1(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bad.json"
        write_matrix_file(path, np.diag([1.0, 2.0]))
        # the non-unitary error comes first, also when the probe is degenerate
        for degenerate in (False, True):
            if degenerate:
                monkeypatch.setattr(harness, "random_density", degenerate_density)
            assert main(["reconstruct", "--in", str(path), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err == "error: hidden channel matrix is not unitary within 1e-10\n", (degenerate, err)

    def test_missing_source_exits_1(self, tmp_path, capsys):
        assert main(["reconstruct", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: one of the arguments --in --circuit is required\n"

    def test_report_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["reconstruct", "--circuit", "example2", "--seed", "8", "--out", str(out)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_report_accounts_for_its_solve(self, tmp_path):
        out = tmp_path / "run"
        assert main(["reconstruct", "--circuit", "example2", "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        record = doc["solve"]
        lib = reconstruct(ChannelOracle(build_example2_circuit()), random_density(8, 3)).solve
        assert record["status"] == lib.status == "converged-tol"
        assert record["iterations"] == len(lib.trace) - 1 > 0
        assert record["singular_steps"] == lib.singular_steps == 0
        assert record["final_objective"] == float(lib.trace.objective[-1])
        assert not [key for key in doc if "time" in key]
        # the same record as solve's summary, less its wall time
        assert main(["solve", "--n", "3", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert list(record) == [key for key in summary if key != "wall_time_s"]

    def test_cli_matches_library_default_config(self, tmp_path):
        # the CLI's reconstruct runs the library default, and repro-ex2 its tolerance
        out = tmp_path / "run"
        assert main(["reconstruct", "--circuit", "example2", "--seed", "8", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        lib = reconstruct(ChannelOracle(build_example2_circuit()), random_density(8, 8))
        assert doc["u0"] == matrix_to_obj(lib.u0)
        assert doc["u_recovered"] == matrix_to_obj(lib.u_recovered)
        assert harness.EX2_SOLVER.tol == RECONSTRUCT_TOL


class TestCliSurface:
    def test_solve_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["solve"])
        flags = SolverConfig(max_iters=args.max_iters, tol=args.tol)
        assert flags == SolverConfig()
        assert args.seed == 0

    def test_option_strings_per_command(self):
        shared = {"-h", "--help", "--seed", "--out"}
        expected = {
            "solve": shared | {"--n", "--pairs", "--in", "--max-iters", "--tol"},
            "reconstruct": shared | {"--in", "--circuit"},
            "repro-ex1": shared,
            "repro-ex2": shared,
        }
        commands = build_parser()._subparsers._group_actions[0].choices
        actual = {
            name: {opt for action in sp._actions for opt in action.option_strings}
            for name, sp in commands.items()
        }
        assert actual == expected


class TestExitCodeTable:
    def test_contract(self, tmp_path, capsys, monkeypatch):
        rho = random_density(3, 1)
        ok_inst = tmp_path / "ok.json"
        write_instance_file(ok_inst, [(rho, rho)])
        bad_inst = tmp_path / "bad.json"
        bad_inst.write_text("{not json")
        null_n = tmp_path / "null_n.json"
        null_pair = {"rho": {**matrix_to_obj(rho), "n": None}, "sigma": matrix_to_obj(rho)}
        null_n.write_text(json.dumps({"pairs": [null_pair]}))
        id_mat = tmp_path / "id.json"
        write_matrix_file(id_mat, np.eye(3, dtype=complex))
        # inputs whose norms overflow a double: each is rejected where it enters
        non_herm = tmp_path / "non_herm.json"
        tilted = np.array([[1e200, 5e199], [0.0, 1e200]])
        write_instance_file(non_herm, [(tilted, tilted)])
        huge_inst = tmp_path / "huge_inst.json"
        write_instance_file(huge_inst, [(np.diag([1e160, 5e159]), np.diag([5e159, 1e160]))])
        huge_mat = tmp_path / "huge_mat.json"
        write_matrix_file(huge_mat, np.array([[1e200, 0.0], [0.0, 1.0]]))
        below_file = str(id_mat / "sub")
        table = [
            (["solve", "--in", str(ok_inst)], 0),
            (["solve", "--in", str(bad_inst)], 1),
            (["solve", "--in", str(null_n)], 1),
            (["solve", "--n", "6", "--seed", "0", "--max-iters", "2", "--tol", "1e-30"], 2),
            (["solve", "--n", "4", "--seed", "-1"], 1),
            (["solve", "--n", "4", "--out", below_file], 1),
            (["solve", "--n", "4", "--tol", "inf"], 1),
            (["solve", "--in", str(ok_inst), "--n", "7", "--pairs", "4"], 1),
            (["solve", "--in", str(ok_inst), "--pairs", "1"], 1),
            (["solve", "--n", "0"], 1),
            (["solve", "--pairs", "0"], 1),
            (["solve", "--n", "3", "--pairs", "-1"], 1),
            (["solve", "--n", "3", "--pairs", "-2"], 1),
            (["reconstruct", "--in", str(id_mat), "--seed", "1"], 0),
            (["reconstruct", "--in", str(bad_inst)], 1),
            (["reconstruct", "--circuit", "example2", "--out", below_file], 1),
            (["repro-ex1", "--seed", "-1"], 1),
            (["repro-ex2", "--seed", "-1"], 1),
            (["solve", "--n", "abc"], 1),
            (["solve", "--bogus"], 1),
            (["reconstruct", "--circuit", "example2", "--in", str(tmp_path / "nope.json")], 1),
            (["solve", "--in", str(non_herm)], 1),
            (["solve", "--in", str(huge_inst)], 1),
            (["reconstruct", "--in", str(huge_mat)], 1),
            # only solve takes solver flags, and no command takes --init or
            # --stall-tol (the stall threshold is fixed): each of these exits 0
            # without its last flag
            (["reconstruct", "--circuit", "example2", "--tol", "1e-3"], 1),
            (["repro-ex1", "--max-iters", "5"], 1),
            (["solve", "--n", "4", "--stall-tol", "nan"], 1),
            (["repro-ex2", "--stall-tol", "0"], 1),
            (["solve", "--init", "random"], 1),
        ]
        for k, (argv, expected) in enumerate(table):
            if "--out" not in argv:
                argv = argv + ["--out", str(tmp_path / f"run{k}")]
            assert main(argv) == expected, argv
            err = capsys.readouterr().err
            if expected == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        # a degenerate probe state is a typed library error
        monkeypatch.setattr(harness, "random_density", degenerate_density)
        assert main(["reconstruct", "--circuit", "example2", "--out", str(tmp_path / "degenerate")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: degenerate state") and err.count("\n") == 1, err

    def test_negative_flag_seed_names_its_source(self, tmp_path, capsys):
        commands = (["solve"], ["reconstruct", "--circuit", "example2"], ["repro-ex1"], ["repro-ex2"])
        for command in commands:
            assert main([*command, "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err == "error: --seed must be nonnegative, got -1\n", command


class TestReproCommands:
    def test_repro_ex1(self, tmp_path):
        out = tmp_path / "ex1"
        assert main(["repro-ex1", "--seed", "2", "--out", str(out)]) == 0
        summary = json.loads((out / "ex1_summary.json").read_text())
        assert summary["single"]["monotone_violations"] == 0
        assert summary["multi"]["monotone_violations"] == 0
        for name in ("single", "multi"):
            rows = (out / f"ex1_{name}_trace.csv").read_text().splitlines()[1:]
            objs = [float(r.split(",")[1]) for r in rows]
            assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_repro_ex2(self, tmp_path):
        out = tmp_path / "ex2"
        assert main(["repro-ex2", "--seed", "4", "--out", str(out)]) == 0
        summary = json.loads((out / "ex2_summary.json").read_text())
        assert summary["runs"] == 20
        assert summary["max_normalized_diff"] < 1e-9
        assert len(set(summary["seeds"])) == 20
        diffs_rows = (out / "ex2_diffs.csv").read_text().splitlines()
        assert diffs_rows[0] == "run,seed,normalized_diff"
        assert len(diffs_rows) == 21
        trace_rows = (out / "ex2_run000_trace.csv").read_text().splitlines()
        assert trace_rows[0] == "iter,objective,step_norm,residual"
        assert len(trace_rows) > 10

    def test_repro_ex2_run_without_a_converging_probe_exits_1(self, tmp_path, capsys, monkeypatch):
        def cap_hit(hidden, rho0, solver=None):
            raise harness.ReconstructionError("solver hit the iteration cap")

        monkeypatch.setattr(harness, "_reconstruct_once", cap_hit)
        assert main(["repro-ex2", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run 0: no candidate probe state converged: solver hit")
        assert err.count("\n") == 1

    def test_repro_ex2_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["repro-ex2", "--seed", "6", "--out", str(out)]) == 0
        for name in ("ex2_diffs.csv", "ex2_summary.json", "ex2_run000_trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
