"""End-to-end runs of the command-line interface.

The README examples are pinned byte for byte against README_CLI_GOLDEN.
Each runs as `python -m fourierjacobi.cli` with single-threaded BLAS: the
cosine sums of `verify-mehler` and `transform` are matrix-vector products,
whose last bits depend on the BLAS thread count.  The coefficient examples
use no such product and are also run at the default thread count.
After an intended output change, refreeze with
`PYTHONPATH=src python tests/test_cli.py --freeze` and review the diff.
"""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import fourierjacobi
from fourierjacobi.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
README_CLI_GOLDEN = Path(__file__).resolve().parent / "readme_cli_golden.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCoeffs:
    def test_csv_output(self, capsys):
        code, out = run(capsys, "coeffs", "--alpha", "-0.5", "--beta", "-0.5",
                        "--kmax", "4", "--function", "cospoly:0,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,value"
        assert len(lines) == 6
        values = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(values[1], math.pi / 2, rtol=1e-10)
        assert abs(values[3]) < 1e-12

    def test_json_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "series.json"
        code, _ = run(capsys, "coeffs", "--alpha", "0.5", "--beta", "0",
                      "--kmax", "8", "--function", "step:1.0,2.0",
                      "--format", "json", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert list(doc) == ["alpha", "beta", "kmax", "normalization", "values"]
        assert doc["alpha"] == 0.5 and doc["kmax"] == 8
        assert doc["normalization"] == "hat"
        assert len(doc["values"]) == 9

        code, out = run(capsys, "coeffs", "--alpha", "0.5", "--beta", "0",
                        "--kmax", "8", "--function", "step:1.0,2.0")
        csv_values = [float(line.split(",")[1])
                      for line in out.strip().splitlines()[1:]]
        np.testing.assert_array_equal(csv_values, doc["values"])

    def test_deterministic(self, capsys):
        args = ("coeffs", "--alpha", "0.25", "--beta", "-0.25",
                "--kmax", "16", "--function", "step:0.8,1.9")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second


class TestDecayAndCounterexample:
    def test_decay_chebyshev_step(self, capsys):
        code, out = run(capsys, "decay", "--alpha", "-0.5", "--beta", "-0.5",
                        "--function", "step:1.0472,1.5708",
                        "--kmax", "512")
        assert code == 0
        assert "slope" in out and "window" in out

    def test_counterexample_passes(self, capsys):
        code, out = run(capsys, "counterexample", "--alpha", "0",
                        "--beta", "-0.5", "--rho", "-0.3", "--kmax", "1024")
        assert code == 0
        predicted = float(out.splitlines()[0].rsplit(" ", 1)[1])
        np.testing.assert_allclose(predicted, -0.9, atol=1e-12)

    def test_counterexample_tol_gate(self, capsys):
        code, out = run(capsys, "counterexample", "--alpha", "0",
                        "--beta", "-0.5", "--rho", "-0.3", "--kmax", "1024",
                        "--tol", "1e-6")
        assert code == 1
        assert "FAIL" in out

    def test_opnorm_reports(self, capsys):
        code, out = run(capsys, "opnorm", "--alpha", "1", "--beta", "0",
                        "--region", "right")
        assert code == 0
        assert "slope" in out


class TestVerifyMehler:
    def test_small_sweep_passes(self, capsys):
        code, out = run(capsys, "verify-mehler", "--kmax", "8")
        assert code == 0
        assert "singular form" in out and "limit form" in out

    def test_unreachable_tolerance_fails(self, capsys):
        code, out = run(capsys, "verify-mehler", "--kmax", "4",
                        "--tol", "1e-18")
        assert code == 1
        assert "FAIL" in out


class TestLaguerre:
    def test_coeffs_csv(self, capsys):
        code, out = run(capsys, "laguerre", "coeffs", "--alpha", "0",
                        "--kmax", "4", "--function", "step:1.0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(values[1], math.exp(-1.0), rtol=1e-10)

    @pytest.mark.parametrize("argv", [
        ("--alpha", "0", "--kmax", "3", "--function", "step:1e300"),
        ("--alpha", "1", "--kmax", "512", "--function", "poly:1"),
    ])
    def test_far_reaching_inputs_under_warnings_as_errors(self, argv):
        """A step edge far out and an infinite piece at high degree both have
        the coefficients of 1 at these alphas: Gamma(alpha+1) = 1, then zeros."""
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fourierjacobi.cli",
                               "laguerre", "coeffs", *argv],
                              env=package_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        values = [float(line.split(",")[1]) for line in proc.stdout.splitlines()[1:]]
        want = np.zeros(int(argv[3]) + 1)
        want[0] = 1.0
        np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-12)

    def test_identity_gate(self, capsys):
        code, out = run(capsys, "laguerre", "identity", "--alpha", "0.5",
                        "--kmax", "20", "--a", "2.5")
        assert code == 0
        assert "identity deviation" in out

    def test_bound_gate(self, capsys):
        code, out = run(capsys, "laguerre", "bound", "--alpha", "1.0",
                        "--kmax", "60")
        assert code == 0
        assert "sup |e^(-x/2) R_k|" in out


class TestTransform:
    def test_chebyshev_rows_match_closed_form(self, capsys):
        code, out = run(capsys, "transform", "--alpha", "-0.5",
                        "--beta", "-0.5", "--function", "indicator:1,2",
                        "--tau-min", "0.5", "--tau-max", "4.5",
                        "--tau-count", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,value"
        scale = math.sqrt(2.0 / math.pi)
        for line in lines[1:]:
            tau, value = (float(s) for s in line.split(","))
            want = scale * (math.sin(2 * tau) - math.sin(tau)) / tau
            np.testing.assert_allclose(value, want, rtol=1e-8, atol=1e-12)

    def test_expdecay_runs(self, capsys):
        code, out = run(capsys, "transform", "--alpha", "0", "--beta", "0",
                        "--function", "expdecay:4.0:1.0",
                        "--tau-max", "3.0", "--tau-count", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 5


class TestErrors:
    def test_bad_function_spec(self, capsys):
        code, out = run(capsys, "coeffs", "--alpha", "0", "--beta", "0",
                        "--kmax", "4", "--function", "wavelet:1.0")
        assert code == 2

    def test_bad_parameter_domain(self, capsys):
        code, _ = run(capsys, "coeffs", "--alpha", "-1.5", "--beta", "0",
                      "--kmax", "4", "--function", "step:1.0,2.0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--alpha", "0", "--beta", "0", "--kmax", "3", "--function", "power:nan"),
        ("coeffs", "--alpha", "0", "--beta", "0", "--kmax", "3", "--function", "cospoly:1,inf"),
        ("laguerre", "coeffs", "--alpha", "0", "--kmax", "3", "--function", "damped:nan:1"),
        ("transform", "--alpha", "0", "--beta", "0", "--tau-max", "3",
         "--function", "expdecay:nan:1"),
    ])
    def test_non_finite_spec_is_a_usage_error(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--alpha", "inf", "--beta", "0", "--kmax", "3", "--function", "step:1,2"),
        ("coeffs", "--alpha", "0", "--beta", "inf", "--kmax", "3", "--function", "step:1,2"),
        ("laguerre", "coeffs", "--alpha", "inf", "--kmax", "3", "--function", "step:1"),
        ("opnorm", "--alpha", "inf", "--beta", "0"),
    ])
    def test_infinite_exponent_is_a_usage_error(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "finite" in captured.err

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--alpha", "0"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSelftest:
    def test_single_criterion(self, capsys):
        code, out = run(capsys, "selftest", "--only", "fit-sanity")
        assert code == 0
        assert out.startswith("PASS fit-sanity")
        assert "1/1 criteria passed" in out


def readme_commands() -> list[str]:
    """The `fourierjacobi ...` lines of README's "Command line" block."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    block = re.sub(r"\\\n\s*", "", block)  # join continued lines
    return [line for line in block.splitlines() if line.startswith("fourierjacobi ")]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def package_env(single_thread: bool = True) -> dict:
    """Environment for a subprocess that imports this package; without
    single_thread the BLAS thread variables are removed, so BLAS picks its
    default thread count."""
    src = str(Path(fourierjacobi.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if single_thread:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def run_readme_command(command: str, single_thread: bool = True) -> dict:
    """Run one README example (see package_env for single_thread)."""
    proc = subprocess.run([sys.executable, "-m", "fourierjacobi.cli",
                           *shlex.split(command)[1:]],
                          env=package_env(single_thread), capture_output=True, text=True,
                          timeout=300)
    return {"command": command, "exit": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}


class TestReadmeGolden:
    def test_examples_match_frozen_output(self):
        golden = {g["command"]: g for g in json.loads(README_CLI_GOLDEN.read_text())}
        commands = readme_commands()
        assert len(commands) >= 9
        assert sorted(commands) == sorted(golden), "README examples and golden differ"
        with ThreadPoolExecutor(2) as pool:
            for command, got in zip(commands, pool.map(run_readme_command, commands)):
                assert got == golden[command], command

    def test_closed_form_examples_at_default_blas_threads(self):
        """coeffs, decay and counterexample print the same bytes whatever the
        BLAS thread count: their series are closed forms, summed in a fixed
        order."""
        golden = {g["command"]: g for g in json.loads(README_CLI_GOLDEN.read_text())}
        commands = [c for c in readme_commands()
                    if c.split()[1] in ("coeffs", "decay", "counterexample")]
        assert len(commands) == 3
        with ThreadPoolExecutor(2) as pool:
            runs = pool.map(lambda c: run_readme_command(c, single_thread=False), commands)
            for command, got in zip(commands, runs):
                assert got == golden[command], command

    def test_laguerre_coeffs_at_default_blas_threads(self):
        """The Laguerre quadrature sums R_k degree by degree with numpy's
        pairwise sum, not a BLAS product."""
        golden = {g["command"]: g for g in json.loads(README_CLI_GOLDEN.read_text())}
        [command] = [c for c in readme_commands() if c.split()[1:3] == ["laguerre", "coeffs"]]
        assert run_readme_command(command, single_thread=False) == golden[command]


QUADRATURE_SERIES = """
from fourierjacobi import CosinePoly, GridSampled, JacobiParams, coefficient_series
params = JacobiParams(0.5, -0.25)
for f in (CosinePoly((0.5, 1.0, 0.25, -0.125)), GridSampled((0.6, 1.2, 1.8), (0.0, 1.0, 0.5))):
    print(coefficient_series(f, 512, params).values.tolist())
"""


def test_quadrature_series_bytes_do_not_depend_on_blas_threads():
    runs = [subprocess.run([sys.executable, "-c", QUADRATURE_SERIES],
                           env=package_env(single), capture_output=True, text=True,
                           timeout=300)
            for single in (True, False)]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout


if __name__ == "__main__" and sys.argv[1:] == ["--freeze"]:
    frozen = [run_readme_command(command) for command in readme_commands()]
    README_CLI_GOLDEN.write_text(json.dumps(frozen, indent=1) + "\n")
