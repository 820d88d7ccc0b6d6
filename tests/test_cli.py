import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sfode import checks, cli
from sfode.cli import main


def run(args):
    return main([str(a) for a in args])


def strict_json(text):
    """Parse JSON, rejecting the NaN and Infinity extensions."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    return comments, data


class TestWeightsCommand:
    def test_trapezoid_column(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["weights", "-n", 2, "--alpha", 1.0, "--h", 0.01, "-o", out]) == 0
        comments, data = read_csv(out)
        assert comments[:4] == ["# alpha=1.0", "# h=0.01", "# mode=standard", "# n=2"]
        assert comments[4].startswith("# version=")
        assert data[0] == "j,a_j,b_j"
        a_col = [float(row.split(",")[1]) for row in data[1:]]
        np.testing.assert_allclose(a_col, [1, 2, 2, 1], atol=1e-12)
        b_cells = [row.split(",")[2] for row in data[1:]]
        assert b_cells[:3] == ["0.01"] * 3 and b_cells[3] == ""

    def test_bad_mode_is_config_error(self, tmp_path):
        assert run(["weights", "-n", 2, "--alpha", 1.0, "--mode", "bogus"]) == 2

    def test_bad_alpha_is_config_error(self):
        assert run(["weights", "-n", 2, "--alpha", 1.5]) == 2


class TestSimulateCommand:
    def test_fig_style_run(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run([
            "simulate", "--system", "newton_leipnik", "--alpha", 0.93,
            "--h", 0.005, "--T", 1.0, "--mu", 0.1, "--seed", 9, "-o", out,
        ])
        assert code == 0
        comments, data = read_csv(out)
        assert data[0] == "t,y1,y2,y3"
        assert len(data) == 1 + 201  # header + one row per node
        joined = "\n".join(comments)
        assert "# alpha=0.93" in joined
        assert "# seed=9" in joined
        assert "# mu=0.1" in joined
        assert "# noise_history=per_step" in joined
        assert "# version=" in joined

    def test_stochastic_low_alpha_rejected(self, tmp_path, capsys):
        code = run([
            "simulate", "--system", "newton_leipnik", "--alpha", 0.3,
            "--h", 0.01, "--T", 1.0, "--mu", 0.1, "-o", tmp_path / "x.csv",
        ])
        assert code == 2
        assert "alpha > 1/2" in capsys.readouterr().err

    def test_low_alpha_fine_when_deterministic(self, tmp_path):
        code = run([
            "simulate", "--system", "newton_leipnik", "--alpha", 0.3,
            "--h", 0.01, "--T", 1.0, "--mu", 0.0, "-o", tmp_path / "x.csv",
        ])
        assert code == 0

    def test_subnormal_step_with_small_alpha(self, tmp_path):
        # h**(alpha - 1) overflows a float here; only the noise terms need it
        code = run([
            "simulate", "--alpha", 0.01, "--mu", 0.0, "--T", 1e-322, "--h", 5e-323,
            "-o", tmp_path / "x.csv",
        ])
        assert code == 0

    def test_divergence_exit_code(self, tmp_path, capsys):
        code = run([
            "simulate", "--system", "lorenz", "--alpha", 0.9, "--h", 0.005,
            "--T", 1.0, "--mu", 50.0, "--seed", 0, "-o", tmp_path / "x.csv",
        ])
        assert code == 3
        assert "divergence" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--system", "lorenz", "--alpha", 0.95, "--h", 0.01,
                "--T", 1.0, "--mu", 0.01, "--seed", 4]
        assert run(args + ["-o", a]) == 0
        assert run(args + ["-o", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_echoes_run_settings(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--system", "linear_test", "--alpha", 0.8, "--h", 0.25,
                    "--T", 1.0, "--seed", 6, "-o", out]) == 0
        comments, _ = read_csv(out)
        for line in ("# alpha=0.8", "# noise_history=per_step", "# weight_mode=standard",
                     "# num_steps=4", "# seed=6"):
            assert line in comments


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "system = linear_test\nalpha = 0.8\nh = 0.25\nT = 1\nlam = 1.0\nseed = 1\n"
        )
        out = tmp_path / "o.csv"
        assert run(["simulate", "--config", cfg, "--alpha", 0.9, "-o", out]) == 0
        comments, _ = read_csv(out)
        assert "# alpha=0.9" in "\n".join(comments)  # flag wins

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("systm = lorenz\n")
        assert run(["simulate", "--config", cfg]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unparsable_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = fast\n")
        assert run(["simulate", "--config", cfg]) == 2

    def test_all_violations_enumerated(self, tmp_path, capsys):
        code = run([
            "simulate", "--system", "lorenz", "--alpha", 7.0,
            "--h", 0.3, "--T", 1.0, "--paths", 0,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "T/h" in err and "paths" in err


class TestEnsembleCommand:
    def test_csv_stats(self, tmp_path):
        out = tmp_path / "stats.csv"
        code = run([
            "ensemble", "--system", "newton_leipnik", "--alpha", 0.93,
            "--h", 0.05, "--T", 0.5, "--mu", 0.1, "--seed", 5,
            "--paths", 8, "--workers", 1, "-o", out,
        ])
        assert code == 0
        _, data = read_csv(out)
        assert data[0] == "t,mean_1,mean_2,mean_3,var_1,var_2,var_3,l2sq"
        assert len(data) == 1 + 11

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        outs = []
        for tag, workers in (("w1", 1), ("w4", 4)):
            out = tmp_path / f"{tag}.csv"
            code = run([
                "ensemble", "--system", "newton_leipnik", "--alpha", 0.93,
                "--h", 0.02, "--T", 0.5, "--mu", 0.1, "--seed", 5,
                "--paths", 12, "--workers", workers, "-o", out,
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_json_summary_with_variance_law_flag(self, tmp_path):
        out = tmp_path / "stats.json"
        code = run([
            "ensemble", "--system", "linear_test", "--lam", 0.0, "--sigma0", 1.0,
            "--alpha", 0.75, "--h", 0.015625, "--T", 1.0, "--seed", 12345,
            "--paths", 200, "--workers", 2, "--format", "json", "-o", out,
        ])
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["num_paths"] == 200
        law = summary["variance_law"]
        assert set(law) == {"expected", "observed", "rel_error", "passed"}
        assert isinstance(law["passed"], bool)
        assert summary["config"]["seed"] == 12345


    @pytest.mark.parametrize("sigma0, h, T", [
        (1e-200, 0.25, 1.0),     # sigma0**2 underflows to 0
        (1e155, 1e-300, 2e-300),  # sigma0**2 overflows; the run stays bounded
    ])
    def test_variance_law_out_of_float_range_fails(self, tmp_path, sigma0, h, T):
        out = tmp_path / "stats.json"
        code = run([
            "ensemble", "--system", "linear_test", "--lam", 0.0, "--sigma0", sigma0,
            "--alpha", 1.0, "--h", h, "--T", T, "--paths", 2, "--workers", 1,
            "--format", "json", "-o", out,
        ])
        assert code == 0
        law = strict_json(out.read_text())["variance_law"]
        assert law["passed"] is False
        assert None in (law["expected"], law["rel_error"])  # inf or nan written as null


class TestPicardCommand:
    def test_zero_system_converges_trivially(self, tmp_path):
        out = tmp_path / "d.csv"
        code = run([
            "picard", "--system", "linear_test", "--lam", 0.0, "--sigma0", 0.0,
            "--alpha", 0.8, "--h", 0.05, "--T", 0.5, "--paths", 100,
            "--iterations", 4, "-o", out,
        ])
        assert code == 0
        _, data = read_csv(out)
        assert data[0] == "k,d_k"
        assert all(float(r.split(",")[1]) == 0.0 for r in data[1:])

    def test_insufficient_contraction_is_diagnostic_failure(self, tmp_path):
        # with K = 2 there is a single gap, and d_1 < 0.01 * d_1 can't hold
        code = run([
            "picard", "--system", "linear_test", "--lam", 1.0,
            "--alpha", 0.8, "--h", 0.05, "--T", 0.5, "--paths", 100,
            "--iterations", 2, "-o", tmp_path / "d.csv",
        ])
        assert code == 4

    def test_too_few_paths_is_config_error(self, tmp_path):
        code = run([
            "picard", "--system", "linear_test", "--alpha", 0.8,
            "--h", 0.05, "--T", 0.5, "--paths", 10, "-o", tmp_path / "d.csv",
        ])
        assert code == 2


class TestConvergeCommand:
    def test_deterministic_report(self, tmp_path):
        out = tmp_path / "conv.json"
        code = run([
            "converge", "--system", "linear_test", "--lam", 1.0, "--alpha", 0.8,
            "--h", 0.03125, "--T", 1.0, "--mu", 0.0, "--levels", 4, "-o", out,
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["levels"]) == 3  # finest level is the reference
        assert report["order"] >= 1.0
        assert report["degenerate"] is False

    def test_zero_system_degenerate_exit(self, tmp_path):
        code = run([
            "converge", "--system", "linear_test", "--lam", 0.0, "--sigma0", 0.0,
            "--alpha", 0.8, "--h", 0.03125, "--T", 1.0, "--levels", 3,
            "-o", tmp_path / "conv.json",
        ])
        assert code == 4

    @pytest.mark.parametrize("flag, value, args", [
        ("noise_history", "last_increment",
         ["--system", "newton_leipnik", "--alpha", 0.93, "--h", 0.02, "--T", 1.0,
          "--levels", 4, "--seed", 5]),
        ("weight_mode", "literal",
         ["--system", "linear_test", "--lam", 1.0, "--alpha", 0.8, "--h", 0.03125,
          "--T", 0.125, "--mu", 0.0, "--levels", 3]),
    ])
    def test_run_settings_reach_every_level(self, tmp_path, flag, value, args):
        reports = {}
        for extra in ([], [f"--{flag.replace('_', '-')}", value]):
            out = tmp_path / f"conv{len(extra)}.json"
            assert run(["converge", *args, *extra, "-o", out]) == 0
            reports[len(extra)] = strict_json(out.read_text())
        default, changed = reports[0], reports[2]
        assert changed["config"][flag] == value
        assert default["config"][flag] != value
        assert [l["h"] for l in changed["levels"]] == [l["h"] for l in default["levels"]]
        assert all(a["error"] != b["error"]
                   for a, b in zip(changed["levels"], default["levels"]))

    def test_too_few_levels_is_config_error(self, tmp_path):
        code = run([
            "converge", "--system", "linear_test", "--alpha", 0.8,
            "--h", 0.1, "--T", 1.0, "--levels", 2, "-o", tmp_path / "c.json",
        ])
        assert code == 2


# Each of these ended in a traceback or a wrong exit code while the command
# line and the library each kept their own copy of the input-domain rules.
@pytest.mark.parametrize("args", [
    ["picard", "--alpha", 0.4, "--mu", 0, "--paths", 100],
    ["picard", "--paths", 100, "--iterations", 1, "--T", 0.1],
    ["simulate", "--T", "inf"],
    ["simulate", "--T", 1e300, "--h", 1e-300],
    ["simulate", "--system", "lorenz", "--a", "nan", "--T", 1],
    ["simulate", "--mu", "nan", "--T", 1],
    ["simulate", "--beta", "inf", "--T", 0.1],
    ["weights", "-n", 2, "--alpha", 0.5, "--h", "inf"],
    ["simulate", "--config", "no-such-dir/run.cfg"],
    ["converge", "--mu", 0, "--levels", 1100],
    # grids and weight tables too large to allocate or to step through
    ["simulate", "--mu", 0, "--T", 1e300, "--h", 0.5],
    ["simulate", "--T", 1e9, "--h", 1],
    ["converge", "--levels", 30],
    ["weights", "-n", 10000000000, "--alpha", 0.5],
])
def test_bad_input_is_config_error(args, tmp_path, capsys):
    assert run(args + ["-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


class TestOutputFile:
    ARGS = ["simulate", "--system", "linear_test", "--alpha", 0.8, "--h", 0.25, "--T", 1.0]

    def test_missing_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run(self.ARGS + ["-o", out]) == 2
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("earlier", [None, "earlier bytes\n"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, earlier):
        out = tmp_path / "x.csv"
        if earlier is not None:
            out.write_text(earlier)

        def failing_writer(traj, stream, meta):
            stream.write("t,y1\n0,1\n")
            raise RuntimeError("writer failed")

        monkeypatch.setattr(cli, "write_trajectory_csv", failing_writer)
        with pytest.raises(RuntimeError):
            run(self.ARGS + ["-o", out])
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if earlier is None else ["x.csv"])
        if earlier is not None:
            assert out.read_text() == earlier

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert run(self.ARGS + ["-o", fifo]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received[0].splitlines()[-1].startswith("1,")
        assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_closed_stdout_is_config_error():
    # the reader takes one line and goes away; the writer must not end in a
    # BrokenPipeError traceback, nor in an error at interpreter exit
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "sfode.cli", "simulate", "--T", "50", "--mu", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline().startswith(b"# ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err.startswith("sfode: configuration error:")
    assert "Broken pipe" in err
    assert "Traceback" not in err and "Exception ignored" not in err


_ODD_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -1.0, -1e300, 1e300]


@st.composite
def _fuzzed_argv(draw, command):
    # at most one float key takes an odd value, so that a good share of the
    # runs get past validation and reach the solver
    keys = ("alpha", "h", "T") + cli._MODEL_KEYS
    odd = draw(st.sampled_from(keys + (None,) * len(keys)))

    def value(key, lo, hi):
        if key == odd:
            return draw(st.sampled_from(_ODD_FLOATS))
        return draw(st.floats(lo, hi, exclude_min=True))

    h = value("h", 0.01, 1.0)
    if odd != "T" and draw(st.sampled_from([True, True, True, False])):
        T = draw(st.integers(2, 64)) * h  # a valid grid
    else:
        T = value("T", 0.0, 2.0)  # mostly non-commensurate
    # a valid grid stays small; T/h may be anything when it is invalid
    assume(checks.grid_rule(T, h) or T / h < 64.5)
    argv = [
        command, f"--system={draw(st.sampled_from(cli._SYSTEMS))}",
        f"--h={h!r}", f"--T={T!r}", f"--alpha={value('alpha', 0.5, 1.0)!r}",
        f"--seed={draw(st.integers(-1, 2**64))}",
        f"--noise-history={draw(st.sampled_from(['per_step', 'last_increment']))}",
        f"--weight-mode={draw(st.sampled_from(['standard', 'literal']))}",
        "--workers=1",
    ]
    for key in cli._MODEL_KEYS:
        if key == odd or draw(st.booleans()):
            argv.append(f"--{key}={value(key, 0.0, 2.0)!r}")
    if command == "picard":
        argv.append(f"--paths={draw(st.sampled_from([3, 100, 100, 100]))}")
        argv.append(f"--iterations={draw(st.integers(1, 3))}")
    if command == "ensemble":
        argv.append(f"--paths={draw(st.integers(0, 3))}")
        argv.append(f"--format={draw(st.sampled_from(['csv', 'json']))}")
    return argv


@pytest.mark.parametrize("command", ["simulate", "ensemble", "picard"])
@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_fuzzed_runs_never_exit_1(command, data):
    argv = data.draw(_fuzzed_argv(command))
    with tempfile.TemporaryDirectory() as tmp:
        code = main(argv + ["-o", os.path.join(tmp, "out")])
    assert code in (0, 2, 3, 4)
