"""Byte-determinism: each row of TABLE runs the CLI in two subprocesses, on one
BLAS thread and on two, and the files it names must be byte-identical."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polarchan
from polarchan import hermitian_eig, random_density
from polarchan.harness import write_matrix_file

U64 = "{u64}"  # stands for the commuting_u64 file
# (argv, files compared); the n=32 20-pair solve and the 64x64 commuting
# reconstruct have the shapes of the pairs and phase64 benchmark workloads
TABLE = [
    (["solve", "--n", "64", "--pairs", "3", "--seed", "1"], ["trace.csv", "summary.json"]),
    (["solve", "--n", "32", "--pairs", "20", "--seed", "5"], ["trace.csv", "summary.json"]),
    (["reconstruct", "--circuit", "example2", "--seed", "3"], ["report.json"]),
    (["reconstruct", "--in", U64, "--seed", "3"], ["report.json"]),
    (["repro-ex1", "--seed", "2"], ["ex1_summary.json", "ex1_single_trace.csv", "ex1_multi_trace.csv"]),
    (["repro-ex2", "--seed", "4"], ["ex2_summary.json", "ex2_diffs.csv", "ex2_run000_trace.csv"]),
]


@pytest.fixture(scope="module")
def commuting_u64(tmp_path_factory):
    """A 64x64 hidden unitary that commutes with the seed-3 probe."""
    v = hermitian_eig(random_density(64, 3)).eigenvectors
    theta = np.random.default_rng(3).uniform(-np.pi, np.pi, 64)
    path = tmp_path_factory.mktemp("u64") / "u64.json"
    write_matrix_file(path, (v * np.exp(1j * theta)) @ v.conj().T)
    return str(path)


@pytest.mark.parametrize("argv, files", TABLE, ids=[" ".join(argv) for argv, _ in TABLE])
def test_outputs_match_on_one_and_two_blas_threads(argv, files, commuting_u64, tmp_path):
    argv = [commuting_u64 if arg == U64 else arg for arg in argv]
    # the imported package's source root goes first, so both runs import it
    path = [str(Path(polarchan.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    outs, procs = [tmp_path / "threads1", tmp_path / "threads2"], []
    for threads, out in zip("12", outs):
        env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", "PYTHONPATH": os.pathsep.join(filter(None, path))}
        env.update(dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], threads))
        # both runs at once: neither reads the other's output
        cmd = [sys.executable, "-m", "polarchan.harness", *argv, "--out", str(out)]
        procs.append(subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    errors = [proc.communicate(timeout=600)[1].decode() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], errors
    for name in files:
        # summary.json's last field, wall_time_s, is the one part that may differ
        one, two = (out.joinpath(name).read_bytes().split(b'"wall_time_s"')[0] for out in outs)
        assert one == two, name
