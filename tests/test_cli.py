"""The command-line interface."""

import io
import re
import sys

import pytest

from repro.cli import main

MJ = """
class Main {
    static int total;
    static void main() {
        for (int i = 0; i <= 10; i++) Main.total += i;
        System.print("total=");
        System.printInt(Main.total);
    }
}
"""

JASM = """.class Main
.method static main ()V
    ldc "hi"
    invokestatic System.print(LString;)V
    return
.end
"""


@pytest.fixture
def mj_file(tmp_path):
    p = tmp_path / "prog.mj"
    p.write_text(MJ)
    return str(p)


@pytest.fixture
def jasm_file(tmp_path):
    p = tmp_path / "prog.jasm"
    p.write_text(JASM)
    return str(p)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRun:
    def test_run_minij(self, mj_file, capsys):
        code, out, _ = run_cli(["run", mj_file, "--seed", "1"], capsys)
        assert code == 0
        assert "total=55" in out

    def test_run_jasm(self, jasm_file, capsys):
        code, out, _ = run_cli(["run", jasm_file, "--seed", "1"], capsys)
        assert code == 0
        assert out.startswith("hi")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["run", "/nope/missing.jasm"], capsys)
        assert code == 2  # usage error, not a finding
        assert "no such file" in err

    def test_unknown_extension(self, tmp_path, capsys):
        p = tmp_path / "x.txt"
        p.write_text("")
        code, _, err = run_cli(["run", str(p)], capsys)
        assert code == 2
        assert "unknown program type" in err


class TestRecordReplay:
    def test_roundtrip(self, mj_file, tmp_path, capsys):
        trace = str(tmp_path / "t.djv")
        code, out, _ = run_cli(
            ["record", mj_file, "--seed", "7", "-o", trace], capsys
        )
        assert code == 0 and "trace:" in out
        code, out, _ = run_cli(["replay", mj_file, trace], capsys)
        assert code == 0
        assert "total=55" in out
        assert "verified" in out

    @pytest.mark.parametrize("flags", [[], ["--compress"], ["--slim"]])
    def test_record_prints_the_file_size(self, mj_file, tmp_path, capsys, flags):
        trace = tmp_path / "t.djv"
        code, out, _ = run_cli(
            ["record", mj_file, "--seed", "7", "-o", str(trace), *flags], capsys
        )
        assert code == 0
        printed = re.search(r"; (\d+) bytes -> (\S+)$", out, re.MULTILINE)
        assert printed.group(2) == str(trace)
        assert int(printed.group(1)) == trace.stat().st_size

    def test_trace_info(self, mj_file, tmp_path, capsys):
        trace = str(tmp_path / "t.djv")
        run_cli(["record", mj_file, "--seed", "7", "-o", trace], capsys)
        code, out, _ = run_cli(["trace-info", trace], capsys)
        assert code == 0
        assert "switch records:" in out and "cycles:" in out

    def test_replay_wrong_program_fails(self, mj_file, jasm_file, tmp_path, capsys):
        trace = str(tmp_path / "t.djv")
        run_cli(["record", mj_file, "--seed", "7", "-o", trace], capsys)
        code, _, err = run_cli(["replay", jasm_file, trace], capsys)
        assert code == 1


class TestExitCodes:
    """The documented convention: 0 ok, 1 finding, 2 unusable input."""

    @pytest.fixture
    def bad_traces(self, tmp_path):
        empty = tmp_path / "empty.djv"
        empty.write_bytes(b"")
        notatrace = tmp_path / "not.djv"
        notatrace.write_bytes(b"PNG\x89 definitely not a trace")
        skew = tmp_path / "future.djv"
        skew.write_bytes(b"DJVU" + (99).to_bytes(2, "little") + b"\x00" * 16)
        return {"empty": empty, "not-a-trace": notatrace, "version-skew": skew}

    @pytest.mark.parametrize("which", ["empty", "not-a-trace", "version-skew"])
    def test_replay_unusable_trace_exits_2(self, bad_traces, which, mj_file, capsys):
        code, _, err = run_cli(["replay", mj_file, str(bad_traces[which])], capsys)
        assert code == 2
        # one-line typed error on stderr, no traceback
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("which", ["empty", "not-a-trace", "version-skew"])
    def test_doctor_unusable_trace_exits_2(self, bad_traces, which, capsys):
        code, out, _ = run_cli(["doctor", str(bad_traces[which])], capsys)
        assert code == 2
        assert "classification:" in out

    def test_doctor_clean_trace_exits_0(self, mj_file, tmp_path, capsys):
        trace = str(tmp_path / "t.djv")
        run_cli(["record", mj_file, "--seed", "7", "-o", trace], capsys)
        code, out, _ = run_cli(["doctor", mj_file, trace], capsys)
        assert code == 0
        assert "classification: clean" in out

    def test_doctor_truncated_trace_exits_1(self, mj_file, tmp_path, capsys):
        trace = tmp_path / "t.djv"
        run_cli(["record", mj_file, "--seed", "7", "-o", str(trace)], capsys)
        trace.write_bytes(trace.read_bytes()[:-11])
        code, out, _ = run_cli(["doctor", mj_file, str(trace)], capsys)
        assert code == 1
        assert "classification: truncated-tail" in out

    def test_unknown_workload_parameter_exits_2(self, capsys):
        code, _, err = run_cli(
            ["run", "--workload", "bank", "-W", "bogus=1"], capsys
        )
        assert code == 2
        assert "no parameter" in err

    def test_unknown_workload_parameter_in_explore_exits_2(self, capsys):
        # explore builds programs through program_factory, not build() —
        # both paths must reject unknown keys as a usage error, not a
        # TypeError from the factory
        code, _, err = run_cli(
            ["explore", "--workload", "bank", "-W", "bogus=1"], capsys
        )
        assert code == 2
        assert "no parameter" in err


class TestFaultsCommand:
    def test_small_campaign_is_clean(self, capsys):
        code, out, _ = run_cli(
            ["faults", "--seed", "3", "--count", "8", "-W", "bank",
             "--heap", "60000"], capsys
        )
        assert code == 0
        assert "clean recovery or a typed diagnostic" in out


class TestDisasm:
    def test_disassembles_with_yieldpoint_counts(self, mj_file, capsys):
        code, out, _ = run_cli(["disasm", mj_file], capsys)
        assert code == 0
        assert ".class Main" in out
        assert "yield points" in out
        assert "getstatic" in out


class TestDebugRepl:
    def test_scripted_session(self, mj_file, tmp_path, capsys, monkeypatch):
        trace = str(tmp_path / "t.djv")
        run_cli(["record", mj_file, "--seed", "7", "-o", trace], capsys)
        script = "break Main.main()V 0\ncont\nbt\nstatic Main total\nfinish\nquit\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(script))
        code, out, _ = run_cli(["debug", mj_file, trace], capsys)
        assert code == 0
        assert "breakpoint" in out
        assert "Main.main @bci 0" in out
        assert "'status': 'done'" in out

    def test_repl_survives_bad_commands(self, mj_file, tmp_path, capsys, monkeypatch):
        trace = str(tmp_path / "t.djv")
        run_cli(["record", mj_file, "--seed", "7", "-o", trace], capsys)
        script = "bogus\nstatic Nope x\nquit\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(script))
        code, out, _ = run_cli(["debug", mj_file, trace], capsys)
        assert code == 0
        assert "unknown command" in out
        assert "error:" in out


def test_unknown_workload_is_unusable_input(tmp_path, capsys):
    code, out, err = run_cli(
        ["record", "--workload", "nope", "-o", str(tmp_path / "t.djv")], capsys
    )
    assert code == 2
    assert "error: unknown workload 'nope'" in err


def test_core_modules_do_not_import_the_command_layer():
    """The library layers stay importable without the CLI or the
    command core, so their import cost is not paid by library users."""
    import os
    import subprocess
    from pathlib import Path

    code = (
        "import sys, repro.api, repro.core, repro.campaign, repro.explore\n"
        "loaded = {'repro.cli', 'repro.commands'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_argparse_defaults_are_the_job_defaults():
    from repro.cli import make_parser
    from repro.commands import job_defaults

    parser = make_parser()
    for kind, argv in (
        ("record", ["record", "p.jasm"]),
        ("explore", ["explore", "p.jasm"]),
        ("replay", ["replay", "p.jasm", "t.djv"]),
    ):
        args = vars(parser.parse_args(argv))
        args["out_name"] = args.get("out")
        for field, value in job_defaults(kind).items():
            if field != "workload_args":
                assert args[field] == value, (kind, field)
