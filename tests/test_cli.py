"""End-to-end runs of the command-line interface and of the demos.

The README examples are pinned byte for byte against README_CLI_GOLDEN.
Each runs as `python -m fourierjacobi.cli` with single-threaded BLAS: the
cosine sums of `verify-mehler` and `transform` are matrix-vector products,
whose last bits depend on the BLAS thread count.  The coefficient examples
use no such product and are also run at the default thread count.  Each
demo runs under -W error with single-threaded BLAS, its stdout pinned
against DEMO_GOLDEN.
After an intended output change, refreeze both with
`PYTHONPATH=src python tests/test_cli.py --freeze`, which prints the entries
that changed, and review the diff.
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
from fourierjacobi.selftest import CRITERIA

README = Path(__file__).resolve().parents[1] / "README.md"
README_CLI_GOLDEN = Path(__file__).resolve().parent / "readme_cli_golden.json"
DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_GOLDEN = Path(__file__).resolve().parent / "demo_output_golden.json"


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

    def test_decay_of_a_terminating_series(self, capsys):
        """Past the degree of a cosine polynomial every coefficient is 0."""
        code, out = run(capsys, "decay", "--alpha", "0.5", "--beta", "-0.25",
                        "--function", "cospoly:1,0.5,0.25", "--kmax", "64")
        assert code == 0
        assert out.splitlines() == [
            "window k in [8, 64]", "slope 0.0", "r_squared 0.0", "max_abs_tail 0.0",
            "skipped 57 zero entries",
            "every entry in the window is 0: the series terminates"]

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


@pytest.mark.parametrize("command, specs", [
    (("transform", "--alpha", "0.5", "--beta", "0", "--tau-max", "6", "--tau-count", "4"),
     ("step:1,2", "indicator:1,2")),
    (("transform", "--alpha", "0.5", "--beta", "0", "--tau-max", "6", "--tau-count", "4"),
     ("damped:4:1", "expdecay:4:1")),
    (("laguerre", "coeffs", "--alpha", "0.5", "--kmax", "16"),
     ("indicator:1,2", "step:1,2")),
])
def test_half_line_spellings_print_the_same_bytes(capsys, command, specs):
    """Both commands read one half-line grammar: step:a,b is indicator:a,b and
    damped: is expdecay:."""
    first, second = (run(capsys, *command, "--function", spec) for spec in specs)
    assert first[0] == 0
    assert first == second


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

    def test_rule_size_budget(self, capsys):
        """A far indicator edge at tau 50 would need a 15,915,520-node rule."""
        code = main(["transform", "--alpha", "0.5", "--beta", "0",
                     "--function", "indicator:1,1e6", "--tau-max", "50"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: rule size must be between 1 and 65536")

    @pytest.mark.parametrize("function,tau_max,message", [
        ("indicator:1,1000", "50", "error: the boundary term overflows at t = 1000.0"),
        ("indicator:1,4000", "50", "error: rule size must be between 1 and 65536"),
        ("indicator:1,500", "1", "error: the boundary term overflows at t = 500.0"),
    ], ids=["budget-1000", "budget-4000", "weight-overflow"])
    def test_sweep_refusals(self, function, tau_max, message):
        """A step's transform is one kernel row per edge.  At tau 50 the row
        at t = 4000 needs a rule past the size limit at the last doubling, and
        at (0.5, 0) the boundary term sinh^3 t cosh^2 t phi^(1.5,1)(t) grows
        like e^(1.5 t), past the largest double beyond t = 473: a usage error,
        found before any rule is built and with no warning."""
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fourierjacobi.cli",
                               "transform", "--alpha", "0.5", "--beta", "0",
                               "--function", function, "--tau-max", tau_max],
                              env=package_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(message)
        assert proc.stderr.count("\n") == 1

    def test_far_edge_below_the_weight_limit(self):
        """At t = 230 the boundary term is still a finite double; 30-digit
        mpmath gives 5.52261846103078656e+152."""
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fourierjacobi.cli",
                               "transform", "--alpha", "0.5", "--beta", "0",
                               "--function", "indicator:1,230", "--tau-max", "1"],
                              env=package_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[:2] == ["tau,value", "0.0,5.522618461030618e+152"]

    @pytest.mark.parametrize("bound", [("--tau-max", "inf"), ("--tau-max", "nan"),
                                       ("--tau-min", "-1", "--tau-max", "3")])
    def test_tau_bounds_are_checked_first(self, bound):
        """A tau bound that is not finite and nonnegative is a usage error,
        found before np.linspace would warn about it."""
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fourierjacobi.cli",
                               "transform", "--alpha", "0.5", "--beta", "0",
                               "--function", "indicator:1,2", *bound],
                              env=package_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --tau-min and --tau-max must be finite and nonnegative\n"

    @pytest.mark.parametrize("argv, message", [
        (("laguerre", "identity", "--alpha", "0.5", "--kmax", "0"),
         "error: the identity needs --kmax >= 1, got 0\n"),
        (("transform", "--alpha", "0.5", "--beta", "0", "--function", "indicator:1,2",
          "--tau-max", "3", "--tau-count", "0"), "error: --tau-count must be at least 1, got 0\n"),
        (("transform", "--alpha", "0.5", "--beta", "0", "--function", "indicator:1,2",
          "--tau-max", "3", "--tau-count", "-2"), "error: --tau-count must be at least 1, got -2\n"),
    ], ids=["identity-kmax-0", "tau-count-0", "tau-count-negative"])
    def test_vacuous_runs_are_usage_errors(self, argv, message):
        """A run that would check or print nothing is refused, not passed."""
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fourierjacobi.cli", *argv],
                              env=package_env(), capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)

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

    def test_unknown_criterion_is_a_usage_error(self, capsys):
        code = main(["selftest", "--only", "nosuch"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: not a criterion: nosuch; the criteria are ")

    def test_readme_names_real_criteria(self):
        names = [name for line in README.read_text().splitlines()
                 if line.startswith("fourierjacobi selftest")
                 for name in re.findall(r"--only\s+(\S+)", line)]
        assert names
        assert set(names) <= set(dict(CRITERIA))


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
poly = CosinePoly((0.5, 1.0, 0.25, -0.125))
for f in (lambda th: poly(th), GridSampled((0.6, 1.2, 1.8), (0.0, 1.0, 0.5))):
    print(coefficient_series(f, 512, params).values.tolist())
"""


def test_quadrature_series_bytes_do_not_depend_on_blas_threads():
    runs = [subprocess.run([sys.executable, "-c", QUADRATURE_SERIES],
                           env=package_env(single), capture_output=True, text=True,
                           timeout=300)
            for single in (True, False)]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout


def demo_names() -> list[str]:
    return sorted(path.name for path in DEMOS.glob("*.py"))


def run_demo(name: str) -> dict:
    """Run one demo under -W error with single-threaded BLAS."""
    proc = subprocess.run([sys.executable, "-W", "error", str(DEMOS / name)],
                          env=package_env(), capture_output=True, text=True, timeout=300)
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


class TestDemoGolden:
    def test_every_demo_is_frozen(self):
        assert sorted(json.loads(DEMO_GOLDEN.read_text())) == demo_names()

    @pytest.mark.parametrize("name", demo_names())
    def test_output_is_frozen(self, name):
        got = run_demo(name)
        assert (got["exit"], got["stderr"]) == (0, "")
        assert got["stdout"] == json.loads(DEMO_GOLDEN.read_text())[name]


def print_changed(path: Path, entries: dict):
    """Print each key of entries whose value differs from the one frozen at path."""
    old = json.loads(path.read_text())
    if isinstance(old, list):
        old = {g["command"]: g for g in old}
    for key in sorted(old.keys() | entries.keys()):
        if old.get(key) != entries.get(key):
            print(f"{path.name}: {key}")


if __name__ == "__main__" and sys.argv[1:] == ["--freeze"]:
    frozen = [run_readme_command(command) for command in readme_commands()]
    print_changed(README_CLI_GOLDEN, {g["command"]: g for g in frozen})
    README_CLI_GOLDEN.write_text(json.dumps(frozen, indent=1) + "\n")
    demos = {name: run_demo(name) for name in demo_names()}
    failed = [name for name, run in demos.items() if run["exit"] or run["stderr"]]
    if failed:
        sys.exit(f"demos failed: {failed}")
    outputs = {name: run["stdout"] for name, run in demos.items()}
    print_changed(DEMO_GOLDEN, outputs)
    DEMO_GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n")
