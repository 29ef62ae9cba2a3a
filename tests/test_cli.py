import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qwell
from qwell import cli, figures, predictors
from qwell.cli import MAX_DENSITY_WORK, MAX_Q, MAX_SAMPLES, _check_samples, main
from qwell.predictors import MAX_SCAN_CONFIGS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _work_started(*args, **kwargs):
    raise AssertionError("the work started before the output path was checked")


def test_plateaux_reports_golden_interval(capsys):
    code, out, _ = run_cli(capsys, "plateaux", "--lambda", "5/2", "--N", "1", "--tau", "1/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["fragmentation"] is False
    assert [iv["interval"] for iv in payload["intervals"]] == [["2/15", "1/5"]]
    assert payload["intervals"][0]["kind"] == "positive"


@pytest.mark.parametrize("panel", ["zero-a", "zero-b", "frag-a", "frag-b"])
def test_plateaux_prints_a_zero_level_as_plus_zero(capsys, panel):
    lam, n_state, tau = figures.PANELS[panel]
    code, out, _ = run_cli(capsys, "plateaux", "--lambda", str(lam), "--N", str(n_state),
                           "--tau", str(tau))
    assert code == 0
    intervals = json.loads(out)["intervals"]
    assert intervals and all(iv["kind"] == "zero" for iv in intervals)
    assert out.count('"level": 0.0,') == len(intervals)


@pytest.mark.parametrize("lam,tau,fragmentation", [
    ("3", "1/3", False), ("301/100", "1/3", True),  # odd q: the period p is q = 3
    ("3", "1/6", False), ("301/100", "1/6", True),  # even q: p is q/2 = 3
])
def test_plateaux_reports_fragmentation_only_above_the_period(capsys, lam, tau, fragmentation):
    code, out, _ = run_cli(capsys, "plateaux", "--lambda", lam, "--N", "1", "--tau", tau)
    assert code == 0
    assert json.loads(out)["fragmentation"] is fragmentation


@pytest.mark.parametrize("a, k, q", [("1", "0", "2"), ("1", "3", "13780")])
def test_gauss_zero_case(capsys, a, k, q):
    code, out, _ = run_cli(capsys, "gauss", a, k, q)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == [0.0, 0.0]
    assert payload["abs_squared"] == 0
    assert payload["abs"] == 0.0


@pytest.mark.parametrize("q, value", [
    # G(1, 0, q) is sqrt(q) for q = 1 (mod 4) and i sqrt(q) for q = 3 (mod 4),
    # while the float sums leave a component of a few 1e-12
    ("100001", [316.229347152, 0.0]),
    ("199999", [0.0, 447.212477465]),
])
def test_gauss_prints_an_exactly_zero_component_as_zero(capsys, q, value):
    code, out, _ = run_cli(capsys, "gauss", "1", "0", q)
    assert code == 0
    assert json.loads(out)["value"] == value


def test_gauss_residual_reported_small(capsys):
    code, out, _ = run_cli(capsys, "gauss", "3", "2", "7")
    payload = json.loads(out)
    assert code == 0
    assert payload["abs_squared"] == 7
    assert payload["factorization_residual"] < 1e-9


def test_density_csv_deterministic(capsys):
    args = ("density", "--lambda", "5/2", "--N", "1", "--tau", "1/3", "--samples", "64")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0] == "x,p"
    assert len(lines) == 65
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_density_svg(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--lambda", "5/2", "--N", "1", "--tau", "1/3",
        "--samples", "128", "--out", "svg",
    )
    assert code == 0
    assert out.startswith("<svg")
    assert "polyline" in out
    assert "stroke-dasharray" in out  # plateau boundary annotations


def test_predict_uniform(capsys):
    code, out, _ = run_cli(capsys, "predict", "--lambda", "5/2", "--N", "1", "--tau", "1/3")
    payload = json.loads(out)
    assert code == 0
    assert payload["regime"] == "uniform"
    assert payload["exists"] is True
    assert payload["interval"] == ["2/15", "1/5"]
    assert payload["center"] == "1/6"
    assert payload["zero_level"] is False


def test_predict_fragmentation_with_decimal_lambda(capsys):
    code, out, _ = run_cli(capsys, "predict", "--lambda", "10.7", "--N", "1", "--tau", "2/7")
    payload = json.loads(out)
    assert code == 0
    assert payload["lambda"] == "107/10"
    assert payload["regime"] == "fragmentation"
    assert payload["peaks"] == 7
    _, out_exact, _ = run_cli(capsys, "predict", "--lambda", "107/10", "--N", "1", "--tau", "2/7")
    assert out == out_exact


def test_predict_no_plateau_expected(capsys):
    code, out, _ = run_cli(capsys, "predict", "--lambda", "5/2", "--N", "2", "--tau", "1/3")
    payload = json.loads(out)
    assert code == 0
    assert payload == {**payload, "regime": "uniform", "exists": False}


def test_scan_writes_report(tmp_path, capsys):
    out_file = tmp_path / "scan.json"
    code, _, err = run_cli(
        capsys, "scan", "--lambda-den", "2", "--lambda-max", "2",
        "--qmax", "6", "--nmax", "1", "--out", str(out_file), "--strict",
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["inconsistent"] == 0
    assert payload["total"] == len(payload["records"]) > 0
    assert "scanned" in err


# Runs each argv through main() in one fresh interpreter, after importing qwell
# and qwell.cli, and prints the exit codes and whether numpy got loaded.
FRESH_MAIN = """
import json, sys
import qwell, qwell.cli
codes = [qwell.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def run_fresh(argvs):
    env = dict(os.environ, PYTHONPATH=str(Path(qwell.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", FRESH_MAIN, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_the_exact_commands_start_and_run_without_numpy(tmp_path, capsys):
    argvs = [
        ["plateaux", "--lambda", "5/2", "--N", "1", "--tau", "1/3"],
        ["predict", "--lambda", "5/2", "--N", "1", "--tau", "1/3"],
        ["predict", "--lambda", "10.7", "--N", "1", "--tau", "2/7"],
        ["gauss", "3", "2", "7"],
        ["scan", "--lambda-den", "2", "--lambda-max", "2", "--qmax", "6", "--nmax", "1"],
    ]
    fresh = [argv + ["--out" if argv[0] == "scan" else "--output",
                     str(tmp_path / f"fresh-{i}")] for i, argv in enumerate(argvs)]
    assert run_fresh(fresh) == {"codes": [0] * len(argvs), "numpy": False}
    for i, argv in enumerate(argvs):
        here = tmp_path / f"here-{i}"
        assert main(argv + ["--out" if argv[0] == "scan" else "--output", str(here)]) == 0
        assert (tmp_path / f"fresh-{i}").read_bytes() == here.read_bytes(), argv
    capsys.readouterr()


def test_the_cli_starts_without_the_process_pool():
    # no plateaux, predict or gauss call pays for a process pool's modules
    # (multiprocessing, pickle, socket, ...) or for mmap and select; the
    # forked scan needs none of them.  Nor for dataclasses and the inspect,
    # ast and dis it pulls in: the value types are NamedTuples
    env = dict(os.environ, PYTHONPATH=str(Path(qwell.__file__).resolve().parent.parent))
    probe = ("import sys, qwell.cli; print(sorted({'concurrent.futures.process', 'mmap',"
             " 'select', 'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# Runs `qwell scan --out -` on the benchmark's tiny grid with the worker count
# given as argv[1], as bench/child.py does, then reports to stderr which of the
# process pool's modules got loaded.  The leading space is still in the stdout
# buffer when the workers fork.  With argv[2] = "kill", each forked worker
# writes "killed;" to stderr and SIGKILLs itself on its first task, and the
# parent sleeps before each of its own, so a worker takes one.  With
# argv[2] = "kill-holding", each forked worker does so at its first claim of
# the task counter, right after its lock is granted, so it dies holding it.
FRESH_SCAN = """
import fcntl, os, signal, sys, time
from functools import partial
import qwell.cli as cli
import qwell.predictors as predictors
sys.stdout.write(" ")
cli.conjecture_scan = partial(cli.conjecture_scan, workers=int(sys.argv[1]))
parent = os.getpid()

def die_in_a_worker():
    if os.getpid() != parent:
        os.write(2, b"killed;")
        os.kill(os.getpid(), signal.SIGKILL)

if sys.argv[2:] == ["kill"]:
    chunk = predictors._scan_chunk

    def killed_in_a_worker(task):
        die_in_a_worker()
        time.sleep(0.02)
        return chunk(task)
    predictors._scan_chunk = killed_in_a_worker
if sys.argv[2:] == ["kill-holding"]:
    lockf = fcntl.lockf

    def killed_holding_the_lock(fd, cmd, *args):
        lockf(fd, cmd, *args)
        if cmd == fcntl.LOCK_EX:
            die_in_a_worker()
    fcntl.lockf = killed_holding_the_lock
code = cli.main(["scan", "--lambda-den", "4", "--lambda-max", "3/2", "--qmax", "8",
                 "--nmax", "2", "--out", "-"])
sys.stdout.flush()
pool = {"concurrent.futures", "multiprocessing", "pickle"}
sys.stderr.write(repr((code, sorted(pool & set(sys.modules)))))
"""


def test_a_forked_scan_prints_one_document_and_imports_no_pool():
    # each forked worker ends with os._exit, so none of them prints the
    # document again or flushes the parent's buffered space; a killed worker
    # costs the parent a re-run of its tasks, not the scan
    env = dict(os.environ, PYTHONPATH=str(Path(qwell.__file__).resolve().parent.parent))
    outs, errs = [], []
    for argv in (["1"], ["2"], ["2", "kill"]):
        done = subprocess.run([sys.executable, "-c", FRESH_SCAN, *argv], env=env,
                              capture_output=True, check=True, timeout=60)
        outs.append(done.stdout)
        errs.append(done.stderr.decode())
    assert all(err.endswith("(0, [])") for err in errs)
    assert [err.count("killed;") for err in errs] == [0, 0, 1]
    assert outs[1] == outs[2] == outs[0]
    assert json.loads(outs[0])["total"] == 120


def test_a_worker_killed_holding_the_task_counter_stalls_no_other():
    # the kernel drops a dead process's record lock, so the parent claims
    # the counter next and runs every task itself
    env = dict(os.environ, PYTHONPATH=str(Path(qwell.__file__).resolve().parent.parent))
    outs, errs = [], []
    for argv in (["1"], ["2", "kill-holding"], ["3", "kill-holding"]):
        done = subprocess.run([sys.executable, "-c", FRESH_SCAN, *argv], env=env,
                              capture_output=True, check=True, timeout=60)
        outs.append(done.stdout)
        errs.append(done.stderr.decode())
    assert all(err.endswith("(0, [])") for err in errs)
    assert [err.count("killed;") for err in errs] == [0, 1, 2]
    assert outs[1] == outs[2] == outs[0]


def test_importing_qwell_loads_none_of_its_modules():
    # each name is imported from the module that defines it; the package
    # itself re-exports nothing
    env = dict(os.environ, PYTHONPATH=str(Path(qwell.__file__).resolve().parent.parent))
    probe = "import sys, qwell; print(sorted(m for m in sys.modules if m.startswith('qwell.')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_density_loads_numpy_and_writes_the_same_bytes(tmp_path):
    argv = ["density", "--lambda", "5/2", "--N", "1", "--tau", "1/3", "--samples", "64",
            "--out", "svg", "--output"]
    assert run_fresh([argv + [str(tmp_path / "fresh.svg")]]) == {"codes": [0], "numpy": True}
    assert main(argv + [str(tmp_path / "here.svg")]) == 0
    assert (tmp_path / "fresh.svg").read_bytes() == (tmp_path / "here.svg").read_bytes()


def test_figures_panel(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "figures", "--panel", "frag-a", "--outdir", str(tmp_path), "--samples", "200",
    )
    assert code == 0
    csv_path = tmp_path / "frag-a.csv"
    svg_path = tmp_path / "frag-a.svg"
    assert csv_path.exists() and svg_path.exists()
    first = csv_path.read_bytes(), svg_path.read_bytes()
    run_cli(capsys, "figures", "--panel", "frag-a", "--outdir", str(tmp_path), "--samples", "200")
    assert (csv_path.read_bytes(), svg_path.read_bytes()) == first
    assert svg_path.read_text().count("<title>") >= 4


def test_bad_rational_exits_2(capsys):
    code, _, err = run_cli(capsys, "plateaux", "--lambda", "nonsense", "--N", "1", "--tau", "1/3")
    assert code == 2
    assert "error" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'frobnicate'" in err
    choices = err.split("choose from", 1)[1]
    assert all(name in choices for name in cli.COMMANDS) and len(cli.COMMANDS) == 6
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err


def _exit_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


# each command with one argument missing: a required option, a positional or
# an option's value
MISSING_ARGUMENT = {
    "density": ["--lambda", "5/2", "--N", "1"],
    "plateaux": ["--N", "1", "--tau", "1/3"],
    "predict": ["--lambda", "5/2", "--tau", "1/3"],
    "scan": ["--qmax"],
    "gauss": ["1", "2"],
    "figures": ["--outdir"],
}


@pytest.mark.parametrize("name", sorted(MISSING_ARGUMENT))
def test_both_parser_routes_print_the_same_text(capsys, name):
    # main builds only the named command's parser; build_parser builds all six
    for argv, code in (([name, "--help"], 0), ([name, *MISSING_ARGUMENT[name]], 2)):
        routed = _exit_and_output(capsys, main, argv)
        assert routed == _exit_and_output(capsys, _full_parse, argv)
        assert routed[0] == code
        assert routed[1 if code == 0 else 2].startswith(f"usage: qwell {name} ")


def test_an_unrecognized_argument_gets_the_full_parsers_usage(capsys):
    argv = ["plateaux", "--lambda", "5/2", "--N", "1", "--tau", "1/3", "--bogus"]
    routed = _exit_and_output(capsys, main, argv)
    assert routed == _exit_and_output(capsys, _full_parse, argv)
    assert routed[0] == 2 and "qwell: error: unrecognized arguments: --bogus" in routed[2]


def test_a_valid_call_never_builds_the_full_parser(monkeypatch, capsys):
    def full_parser():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", full_parser)
    params = ["--lambda", "5/2", "--N", "1", "--tau", "1/3"]
    for argv in (["plateaux", *params], ["predict", *params], ["gauss", "3", "2", "7"],
                 ["density", *params, "--samples", "64"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    for argv in ([], ["--help"], ["frobnicate"]):
        with pytest.raises(AssertionError, match="full parser"):
            main(argv)


def test_the_console_script_path_reads_sys_argv(tmp_path):
    # `qwell = "qwell.cli:main"` calls main() with no argv, as python -m does
    env = dict(os.environ, PYTHONPATH=str(Path(qwell.__file__).resolve().parent.parent))
    argv = ["plateaux", "--lambda", "5/2", "--N", "1", "--tau", "1/3", "--output"]
    done = subprocess.run([sys.executable, "-m", "qwell.cli", *argv, str(tmp_path / "fresh")],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert main(argv + [str(tmp_path / "here")]) == 0
    assert (tmp_path / "fresh").read_bytes() == (tmp_path / "here").read_bytes()
    done = subprocess.run([sys.executable, "-m", "qwell.cli"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 2 and "required" in done.stderr


# sha256 of CSV + SVG of each reference panel at the default 2000 samples
PANEL_DIGESTS = {
    "frag-a": "2c4a756edf8e3bc00daed95819f0d40dc7f7f7e36080c985e7a6038c527e8a90",
    "frag-b": "72c0e99e2474018428eb033ff815c6951c2a369e533766519922918e414a1ba4",
    "frag-c": "61eed1e381b4b7c476bdb935a292ad630a84d4536835a88b4ed04c357bb6f62e",
    "plat-a": "cbcfcbbf98e37d06b71a09f6a48dc77476d159a421074a2696900a231d184473",
    "plat-b": "ed3138c5a7b307f1e9b37d2533f42ad59d84c83c0bca25c0bfdb644ac2c20b15",
    "plat-c": "a39b573247502415f3dc108bc010d5e3d4b74c10b4bdc35e536ebc594d9624d9",
    "zero-a": "c008dbfbb3748a90e8c30e8c4796f7870c1699bd7a3b68dd140b7511fa488bc2",
    "zero-b": "6274cf3d8cf13be62ceacf5be641086470b17ef162b9a347f215349ae5360898",
    "zero-c": "503c93313994dbf95e0ef2c124463e5114113662e547115daaeb9b6263d61082",
}


def test_panel_bytes_pinned():
    assert set(PANEL_DIGESTS) == set(figures.PANELS)
    for panel, digest in PANEL_DIGESTS.items():
        csv_text, svg_text = figures.render_panel(panel)
        assert hashlib.sha256((csv_text + svg_text).encode()).hexdigest() == digest, panel


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--lambda", "1e400", "--N", "1", "--tau", "1/3"),
        ("plateaux", "--lambda", "1e400", "--N", "1", "--tau", "1/3"),
        ("predict", "--lambda", "1e400", "--N", "1", "--tau", "1/3"),
        ("plateaux", "--lambda", "5/2", "--N", "1", "--tau", "1e400"),
        ("density", "--lambda", "5/2", "--N", "1" + "0" * 400, "--tau", "1/3"),
        ("scan", "--lambda-max", "1e400", "--out", "unused.json"),
    ],
)
def test_rationals_beyond_float_range_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "too large for a float" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("plateaux", "--lambda", "5/2", "--N", "1", "--tau", "1/" + "1" + "0" * 30),
        ("plateaux", "--lambda", "5/2", "--N", "1", "--tau", f"2/{MAX_Q + 1}"),
        ("density", "--lambda", "5/2", "--N", "1", "--tau", "1/" + "1" + "0" * 30),
        ("density", "--lambda", "5/2", "--N", "1", "--tau", f"1/{MAX_Q + 1}", "--out", "svg"),
        ("gauss", "1", "0", "1000000000000"),
        ("gauss", "1", "0", str(MAX_Q + 1)),
        # fragmentation: the layout would list about q/2 intervals
        ("predict", "--lambda", "1e31", "--N", "1", "--tau", "1/" + "1" + "0" * 30),
        ("predict", "--lambda", "10000000", "--N", "1", "--tau", "1/2000001"),
    ],
)
def test_q_beyond_max_q_exits_2_before_any_work(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"MAX_Q = {MAX_Q}" in err


def test_predict_takes_any_q(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--lambda", "5/2", "--N", "1", "--tau", "1/" + "1" + "0" * 30
    )
    assert code == 0
    assert json.loads(out)["regime"] == "uniform"


@pytest.mark.parametrize(
    "argv,limit",
    [
        (("density", "--lambda", "5/2", "--N", "1", "--tau", "1/3",
          "--samples", str(10**9)), f"MAX_SAMPLES = {MAX_SAMPLES}"),
        (("density", "--lambda", "5/2", "--N", "1", "--tau", "1/3", "--out", "svg",
          "--samples", str(MAX_SAMPLES + 1)), f"MAX_SAMPLES = {MAX_SAMPLES}"),
        # 4001 samples at q = 199999 is just over MAX_Q times the default 4000
        (("density", "--lambda", "5/2", "--N", "1", "--tau", "1/199999",
          "--samples", "4001"), f"MAX_Q * 4000 = {MAX_DENSITY_WORK}"),
        (("figures", "--panel", "all", "--outdir", "panels",
          "--samples", str(10**9)), f"MAX_SAMPLES = {MAX_SAMPLES}"),
        (("density", "--lambda", "5/2", "--N", "1", "--tau", "1/3", "--out", "svg",
          "--samples", "1"), "at least 2 samples"),
        (("figures", "--panel", "all", "--outdir", "panels", "--samples", "1"),
         "at least 2 samples"),
    ],
)
def test_samples_beyond_the_limits_exit_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                          argv, limit):
    monkeypatch.chdir(tmp_path)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == "" and not any(tmp_path.iterdir())
    assert err.startswith("error:") and limit in err


@pytest.mark.parametrize("command", [("plateaux",), ("density", "--out", "svg")])
def test_order_beyond_the_image_range_exits_2_before_any_work(capsys, command):
    # N lam = 2.0000000000000000000000001 has denominator 10^25, so
    # M = 199999 * 10^25 is too large for a certified prime ell = 1 (mod M)
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, *command, "--lambda", "2.0000000000000000000000001", "--N", "1",
        "--tau", "1/199999",
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"M = {199999 * 10**25}" in err
    assert "denominator of N lambda is too large" in err


def test_a_large_prime_denominator_is_factored_within_5_s():
    # N lam = (v + 1) / v with v = 100000000000000000039 a prime: M = 3 v, and
    # trial division up to sqrt(M) would take about 20 minutes to finish
    v = 100000000000000000039
    env = dict(os.environ, PYTHONPATH=str(Path(qwell.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "qwell.cli", "plateaux", "--lambda",
                           f"{v + 1}/{v}", "--N", "1", "--tau", "1/3"],
                          env=env, capture_output=True, text=True, timeout=5)
    assert (done.returncode, done.stderr) == (0, "")
    payload = json.loads(done.stdout)
    assert (payload["lambda"], payload["zero_checks"]) == (f"{v + 1}/{v}", 8)


def test_a_denominator_of_two_large_primes_exits_2_within_5_s(capsys):
    # v = p p' with both primes above the trial-division bound 2^20: M = 3 v
    # is not factored, and the message names M and the cofactor left
    v = 2097169 * 4194319
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "plateaux", "--lambda", f"{v + 1}/{v}", "--N", "1",
                             "--tau", "1/3")
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"M = {3 * v}" in err
    assert f"({v} has no prime factor up to 1048576 but is not a prime)" in err


def test_samples_at_the_limits_are_accepted():
    # the default 4000 samples at q = MAX_Q, and MAX_SAMPLES with and without a q
    for samples, q in ((4000, MAX_Q), (MAX_SAMPLES, 800), (MAX_SAMPLES, 1)):
        _check_samples(samples, q)


def test_scan_lambda_grid_stops_at_qmax(tmp_path, capsys):
    def records(lambda_max):
        out_file = tmp_path / f"scan-{lambda_max}.json"
        code, _, _ = run_cli(
            capsys, "scan", "--lambda-den", "2", "--qmax", "4", "--nmax", "1",
            "--lambda-max", lambda_max, "--out", str(out_file),
        )
        assert code == 0
        return json.loads(out_file.read_text())

    huge, capped = records("1e300"), records("4")
    assert huge["grid"]["lambda_max"] == "1" + "0" * 300 + "/1"
    assert huge["records"] == capped["records"] and huge["total"] == capped["total"] > 0


def test_scan_grid_beyond_max_scan_configs_exits_2_before_any_work(tmp_path, capsys):
    # the grid alone would walk about 5e9 fractions u/v before any configuration
    out_file = tmp_path / "scan.json"
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "scan", "--lambda-den", "100000", "--qmax", "2", "--nmax", "1",
        "--lambda-max", "2", "--out", str(out_file),
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == "" and not out_file.exists()
    assert err.startswith("error:") and f"MAX_SCAN_CONFIGS = {MAX_SCAN_CONFIGS}" in err



@pytest.mark.parametrize("flag", ["--lambda-den", "--qmax", "--nmax"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_scan_grid_arguments_below_1_exit_2_before_any_work(tmp_path, capsys, flag, value):
    out_file = tmp_path / "scan.json"
    code, out, err = run_cli(capsys, "scan", flag, value, "--out", str(out_file))
    assert code == 2
    assert out == "" and not out_file.exists()
    assert err.startswith("error:") and "at least 1" in err

# sha256 of `plateaux --lambda 5/2 --N 1 --tau 1/q` at large q
LARGE_Q_REPORT_DIGESTS = {
    10001: "12e6bb516af07de5c8622dcd4ac95322e7ff3b1a7c1780a3979f98059720d07f",
    20001: "63d71c536ed79b2a4ade793985ba3aa56344ff3ef9e3addae9d0fae4d9bb9526",
}


@pytest.mark.parametrize("q", sorted(LARGE_Q_REPORT_DIGESTS))
def test_large_q_report_bytes_pinned(tmp_path, capsys, q):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "plateaux", "--lambda", "5/2", "--N", "1", "--tau", f"1/{q}",
        "--output", str(out_file),
    )
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == LARGE_Q_REPORT_DIGESTS[q]


# sha256 of the stdout of `predict` and `gauss`
PRINTED_DIGESTS = {
    # fragmentation: odd q, 0 mod 4 and 2 mod 4
    "predict --lambda 107/10 --N 1 --tau 2/7":
        "8f9cd36d71417910c0faa120772b7bcb94780d4a2f27dbae1499c0e9094a63bf",
    "predict --lambda 107/10 --N 2 --tau 1/12":
        "a6bed9623bf941681d5965d4fcd4a02d200646ea724b1ab6a7506455c2ef8a20",
    "predict --lambda 107/10 --N 1 --tau 3/10":
        "7472ed72893b59645e25a12106b2263f828fdc6d7c08ad69cc9e902db6b75ccb",
    # critical
    "predict --lambda 3 --N 1 --tau 1/3":
        "742c4d74e80d58af5c17024c26d4ea0c29344959f8d45ac2ee39856de02b4004",
    # uniform: a zero level, a positive level and no plateau
    "predict --lambda 3/2 --N 1 --tau 1/3":
        "26b42bbb9509a3974f21c8ed185cc99c64e78be4faf625de54ec5d02ab306290",
    "predict --lambda 5/2 --N 1 --tau 1/3":
        "20d43c1fd32f64b5cd5928a32e9c022f3047ba2f9a0a284e61e4aa8b1a46307c",
    "predict --lambda 5/2 --N 2 --tau 1/3":
        "8c8cd81a264cb4a336d1e2573de47e591d46e33f89b657e88cd0c6147bd9d522",
    "gauss 5 2 12": "018e721b62ccde14e29a858ef9cad6dfb87a98c2e597bbe394a24e8f04d6b82d",
    "gauss 3 2 7": "a5327e1f6514ccd368541954aa4192f03cdcf1bd6cc308f6a4ad3c9e43bda98a",
    # a vanishing coefficient
    "gauss 5 1 12": "3280a40428ea41b77e7c6697b0fd69d8fe8ed21c6f6682318e818aaabd7f284f",
}


@pytest.mark.parametrize("argv", sorted(PRINTED_DIGESTS))
def test_predict_and_gauss_bytes_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PRINTED_DIGESTS[argv]


def test_scan_refuses_an_unwritable_out_before_any_work(tmp_path, monkeypatch, capsys):
    # the default grid takes seconds; a missing directory or a directory as
    # the file is refused first
    monkeypatch.setattr(cli, "conjecture_scan", _work_started)
    for out_file in (tmp_path / "missing" / "scan.json", tmp_path):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "scan", "--out", str(out_file))
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == "" and not (tmp_path / "missing").exists()
        assert err.startswith("error:") and str(out_file) in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("plateaux", "--lambda", "5/2", "--N", "1", "--tau", "1/3"),
        ("density", "--lambda", "5/2", "--N", "1", "--tau", "1/3", "--samples", "8"),
        ("predict", "--lambda", "5/2", "--N", "1", "--tau", "1/3"),
        ("gauss", "1", "0", "3"),
    ],
)
def test_output_to_a_directory_exits_2(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(tmp_path) in err


def test_figures_outdir_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "panels"
    taken.write_text("not a directory\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "figures", "--panel", "plat-a", "--outdir", str(taken), "--samples", "8"
    )
    assert code == 2
    assert out == "" and taken.read_text(encoding="utf-8") == "not a directory\n"
    assert err.startswith("error:") and str(taken) in err


# each subcommand with --output, and the functions that do its work
WORK_BY_COMMAND = [
    (("plateaux", "--lambda", "5/2", "--N", "1", "--tau", "1/3"),
     [(cli, "detect_plateaux")]),
    (("density", "--lambda", "5/2", "--N", "1", "--tau", "1/3", "--samples", "8"),
     [(cli, "detect_plateaux"), (figures, "density_samples")]),
    (("density", "--lambda", "5/2", "--N", "1", "--tau", "1/3", "--out", "svg"),
     [(cli, "detect_plateaux"), (figures, "density_samples")]),
    (("predict", "--lambda", "5/2", "--N", "1", "--tau", "1/3"),
     [(cli, "has_fragmentation"), (cli, "nonfrag_prediction")]),
    (("predict", "--lambda", "10.7", "--N", "1", "--tau", "2/7"),
     [(cli, "has_fragmentation"), (cli, "fragmentation_layout")]),
    (("gauss", "3", "2", "7"), [(cli, "gauss_sum_direct"), (cli, "gauss_abs_sq")]),
]


@pytest.mark.parametrize("argv,work", WORK_BY_COMMAND)
@pytest.mark.parametrize("target", ["directory", "missing directory"])
def test_unwritable_output_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv, work,
                                                   target):
    for module, name in work:
        monkeypatch.setattr(module, name, _work_started)
    output = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, *argv, "--output", str(output))
    assert code == 2
    assert out == "" and not (tmp_path / "missing").exists()
    assert err.startswith("error:") and str(output) in err


def test_large_q_plateaux_to_a_directory_exits_2_within_1_s(tmp_path, capsys):
    # the report itself takes seconds at q = 199999
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "plateaux", "--lambda", "5/2", "--N", "1",
                             "--tau", "1/199999", "--output", str(tmp_path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "grid",
    [("--qmax", "1"), ("--qmax", "2"), ("--lambda-max", "1"), ("--lambda-max", "21/20"),
     ("--lambda-max", "-3")],
)
def test_empty_scan_grid_exits_2_before_any_work(tmp_path, monkeypatch, capsys, grid):
    monkeypatch.setattr(predictors, "detect_plateaux", _work_started)
    out_file = tmp_path / "scan.json"
    code, out, err = run_cli(capsys, "scan", *grid, "--out", str(out_file))
    assert code == 2
    assert out == "" and not out_file.exists()
    assert err.startswith("error:") and "holds no configuration" in err
