import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polarchan.harness import (
    build_example2_circuit,
    gate_library,
    generate_exact_instance,
    main,
    matrix_from_obj,
    matrix_to_obj,
    read_instance_file,
    read_matrix_file,
    write_instance_file,
    write_matrix_file,
)
from polarchan.matkit import kron, random_density, random_unitary, unitarity_defect
from polarchan.search import SolverConfig, solve


class TestCircuitAndGates:
    def test_circuit_is_unitary(self):
        assert unitarity_defect(build_example2_circuit()) < 1e-12

    def test_circuit_entries(self):
        u = build_example2_circuit()
        assert u[0, 0] == 0.5
        assert set(np.unique(u.real)) == {-0.5, 0.0, 0.5}
        assert np.all(u.imag == 0.0)

    def test_hadamard_involution(self):
        h = gate_library()["H"]
        assert_allclose(h @ h, np.eye(2), atol=1e-15)

    def test_cnot_involution(self):
        c = gate_library()["CNOT"]
        assert_allclose(c @ c, np.eye(4), atol=0)

    def test_kron_chains_stay_unitary(self):
        g = gate_library()
        chain = kron(g["H"], kron(g["CNOT"], g["I"]))
        assert unitarity_defect(chain) < 1e-12
        assert chain.shape == (16, 16)


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

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"n": 1, "re": [[float("nan")]], "im": [[0.0]]})

    def test_obj_round_trip(self):
        m = random_density(3, 2)
        assert np.array_equal(matrix_from_obj(matrix_to_obj(m)), m)

    def test_instance_file_round_trip(self, tmp_path):
        _, inst = generate_exact_instance(3, 2, 5)
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

    def test_trace_csv_matches_solve_result(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--n", "5", "--pairs", "2", "--seed", "13", "--out", str(out)]) == 0
        _, inst = generate_exact_instance(5, 2, 13)
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

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        flagged, env = tmp_path / "flag", tmp_path / "env"
        assert main(["solve", "--n", "4", "--seed", "21", "--out", str(flagged)]) == 0
        monkeypatch.setenv("POLARCHAN_SEED", "21")
        assert main(["solve", "--n", "4", "--out", str(env)]) == 0
        assert (flagged / "trace.csv").read_bytes() == (env / "trace.csv").read_bytes()
        # flag beats env
        other = tmp_path / "other"
        monkeypatch.setenv("POLARCHAN_SEED", "99")
        assert main(["solve", "--n", "4", "--seed", "21", "--out", str(other)]) == 0
        assert (flagged / "trace.csv").read_bytes() == (other / "trace.csv").read_bytes()

    def test_bad_env_seed_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POLARCHAN_SEED", "not-a-number")
        assert main(["solve", "--n", "4", "--out", str(tmp_path / "o")]) == 1


class TestCmdReconstruct:
    def test_circuit_example2(self, tmp_path):
        out = tmp_path / "run"
        code = main(["reconstruct", "--circuit", "example2", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["normalized_diff"] < 1e-9
        assert report["budget_used"] <= 8 * 8 + 3 * 8
        assert set(report) >= {"u0", "v", "d", "u_recovered", "budget_used", "eigengap", "residual_on_tests"}

    def test_identity_channel_file(self, tmp_path):
        path = tmp_path / "id.json"
        write_matrix_file(path, np.eye(6, dtype=complex))
        out = tmp_path / "run"
        code = main(["reconstruct", "--in", str(path), "--seed", "5", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["normalized_diff"] < 1e-10

    def test_degenerate_flag_exits_1(self, tmp_path, capsys):
        code = main(["reconstruct", "--circuit", "example2", "--force-degenerate", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "degenerate state" in capsys.readouterr().err

    def test_non_unitary_input_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        write_matrix_file(path, np.diag([1.0, 2.0]))
        assert main(["reconstruct", "--in", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_missing_source_exits_1(self, tmp_path):
        assert main(["reconstruct", "--out", str(tmp_path / "o")]) == 1

    def test_report_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["reconstruct", "--circuit", "example2", "--seed", "8", "--out", str(out)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


class TestExitCodeTable:
    def test_contract(self, tmp_path):
        rho = random_density(3, 1)
        ok_inst = tmp_path / "ok.json"
        write_instance_file(ok_inst, [(rho, rho)])
        bad_inst = tmp_path / "bad.json"
        bad_inst.write_text("{not json")
        id_mat = tmp_path / "id.json"
        write_matrix_file(id_mat, np.eye(3, dtype=complex))
        table = [
            (["solve", "--in", str(ok_inst)], 0),
            (["solve", "--in", str(bad_inst)], 1),
            (["solve", "--n", "6", "--seed", "0", "--max-iters", "2", "--tol", "1e-30"], 2),
            (["reconstruct", "--in", str(id_mat), "--seed", "1"], 0),
            (["reconstruct", "--in", str(bad_inst)], 1),
            (["reconstruct", "--circuit", "example2", "--force-degenerate"], 1),
        ]
        for k, (argv, expected) in enumerate(table):
            out = tmp_path / f"run{k}"
            assert main(argv + ["--out", str(out)]) == expected, argv


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

    def test_repro_ex2_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["repro-ex2", "--seed", "6", "--out", str(out)]) == 0
        for name in ("ex2_diffs.csv", "ex2_summary.json", "ex2_run000_trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
