"""The scripts under scripts/ run against this checkout's `tdec`.

Each runs as a subprocess with the checkout's src/ first on the path, except
two that are loaded in process: `make_fixtures.py`, so that its output
directory can point at a temporary one, and `bench.py`, whose summary,
comparison and argument check are called without running a benchmark.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tdec
from conftest import assert_same_output

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

# the outcome digests of `scripts/sameness.py --seed 31`: the rank, bases and
# frame change of each success and the stage, frames and stop reason of each
# refusal, floats left out; a change that moves outcomes on purpose updates
# them
OUTCOMES_AT_SEED_31 = {
    "flat-large": "a57769d568d8a07549fd8b41e616b779cb2c12d6ce1125a4835f5e43fe3d7c8d",
    "small-mixed": "0bc1e64286e35230f8fbd8ed7b4365fb3f00da37c62de84699e43c4975a93f02",
    "hard-inputs": "6d1a9ef04c410f99962647d3f7b33b1d27368c19ad5a0ce5e970ffc84cbd706f",
}

# the lines of `scripts/integer_sweep.py` but its CPU seconds: recoveries and
# complex results per format, frame rescues with their largest weight
# modulus, frames over refusals, stop reasons and stages of the non-generic
# integer-point inputs; a change that moves these outcomes on purpose
# updates them
INTEGER_SWEEP_OUTCOMES = """\
(2,2)/(2,2) r4       40/40 recovered; complex 0
3x3x4 r4             31/40 recovered; complex 10
4x4x4 r4             39/40 recovered; complex 4
(2,2,2)/(1,1,2) r4   40/40 recovered; complex 7
3x3x3 r3             40/40 recovered; complex 8
total 190/200 recovered
rescued by a frame change: 1: 3x3x4 r4 seed 29 (max |weight| 1.09e+07)
frames tried over 10 refusals: 20
  stopped on random frame 1: no completion extended: 9
  stopped on random frame 1: term at infinity: 1
  refused at stage extension: 9
  refused at stage frame: 1
"""

# the lines of `scripts/generic_sweep.py` but their slowest instances and the
# CPU seconds: recoveries, refusals by stage and detail class, and complex
# results for real input, of seeded generic tensors; a change that moves
# these outcomes on purpose updates them
GENERIC_SWEEP_OUTCOMES = """\
ternary quartic r5     10/10 recovered; refused none; complex 4
ternary quartic r6     10/10 recovered; refused none; complex 6
quaternary quartic r8  10/10 recovered; refused none; complex 2
quaternary quartic r9  9/10 recovered; refused extension/not unique 1; complex 5
4x4x10 r9              0/10 recovered; refused extension/not unique 10; complex 0
(2,2)/(2,2) r6         8/10 recovered; refused extension/not unique 2; complex 0
3x3x3x3 r5             10/10 recovered; refused none; complex 0
2x2x3 r3               10/10 recovered; refused none; complex 6
3x3x3 r3               10/10 recovered; refused none; complex 0
ternary quartic r4     10/10 recovered; refused none; complex 0
quaternary quartic r7  10/10 recovered; refused none; complex 0
4x4x10 r8              10/10 recovered; refused none; complex 0
3x3x3 r4               0/10 recovered; refused extension/inconsistent 10; complex 0
"""


def run_script(name, *args, returncode=0):
    env = dict(os.environ)
    env.pop("TDEC_LOG", None)
    src = str(Path(tdec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def sameness_at_seed_31():
    """The output of `scripts/sameness.py --seed 31`."""
    return run_script("sameness.py", "--seed", "31")


def test_run_demo_instances():
    out = run_script("run_demo_instances.py")
    assert "bases:  B  = 1, a1, a2, a3, b1, b2" in out
    assert "rank 6, residual" in out


def test_sameness_outcomes_at_seed_31(sameness_at_seed_31):
    # one line per workload: name, seed, bit digest, outcome digest, and on
    # flat-large the CLI digest
    lines = [line.split() for line in sameness_at_seed_31.splitlines()]
    assert {line[0]: line[3] for line in lines} == OUTCOMES_AT_SEED_31
    assert all(line[1] == "31" for line in lines)


def test_sameness_check_names_each_differing_digest(sameness_at_seed_31, tmp_path):
    saved = tmp_path / "saved.txt"
    saved.write_text(sameness_at_seed_31)
    out = run_script("sameness.py", "--check", str(saved))
    assert out == sameness_at_seed_31
    # one flipped hex digit in the small-mixed bit digest and one in the
    # flat-large CLI digest
    lines = [line.split() for line in sameness_at_seed_31.splitlines()]
    tampered = {"small-mixed": 2, "flat-large": 4}
    for fields in lines:
        if fields[0] in tampered:
            k = tampered[fields[0]]
            fields[k] = ("0" if fields[k][0] != "0" else "1") + fields[k][1:]
    changed = tmp_path / "tampered.txt"
    changed.write_text("".join(" ".join(f) + "\n" for f in lines))
    out = run_script("sameness.py", "--check", str(changed), returncode=1)
    differs = [line.split(",")[0] for line in out.splitlines()
               if line.startswith("differs:")]
    assert differs == ["differs: flat-large 31 cli digest",
                       "differs: small-mixed 31 bit digest"]
    assert [line for line in out.splitlines()
            if not line.startswith("differs:")] == sameness_at_seed_31.splitlines()


def test_integer_sweep_outcomes():
    *lines, cpu = run_script("integer_sweep.py").splitlines()
    assert lines == INTEGER_SWEEP_OUTCOMES.splitlines()
    assert cpu.startswith("CPU s: ")



def test_generic_sweep_outcomes():
    *lines, cpu = run_script("generic_sweep.py").splitlines()
    assert [line.split(" | ")[0] for line in lines] == (
        GENERIC_SWEEP_OUTCOMES.splitlines()
    )
    assert all(re.fullmatch(r"slowest \d+ ms \(seed \d\)", line.split(" | ")[1])
               for line in lines)
    assert cpu.startswith("CPU s: ")


def test_roundtrip_sweep_recovers_every_instance():
    # two seeds at each of 21 ranks over 11 formats
    lines = run_script("roundtrip_sweep.py", "--seeds", "2").splitlines()
    assert sum("2/2 recovered" in line for line in lines) == 21
    assert lines[-1].startswith("42/42 recovered in ")


def test_make_fixtures_rewrites_the_committed_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", SCRIPTS / "make_fixtures.py"
    )
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURES", tmp_path)
    script.main()
    names = [f"example{i}{end}.json" for i in (1, 2) for end in ("", "_truth")]
    decompositions = [f"{name}.dec.json" for name in script.GOLDEN_SEEDS]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + decompositions)
    for name in names:
        assert (tmp_path / name).read_bytes() == (
            ROOT / "tests" / "fixtures" / name
        ).read_bytes(), name
    # the decompositions as TestCli::test_decompose_matches_golden_file
    # compares them: meta exactly, floats to rel 1e-9
    for name in decompositions:
        got = json.loads((tmp_path / name).read_text())
        want = json.loads((ROOT / "tests" / "fixtures" / name).read_text())
        assert got["meta"] == want["meta"], name
        assert_same_output(got, want)


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_bench_summary_of_one_value():
    assert load_bench().summary([3.5]) == {
        "values": [3.5], "median": 3.5, "q1": 3.5, "q3": 3.5,
    }


def test_bench_compare_counts_strict_wins_in_each_direction():
    def runs(rates, times):
        return [
            {"metrics": {"rate": {"unit": "1/s", "value": a},
                         "time": {"unit": "ms", "value": b}}}
            for a, b in zip(rates, times)
        ]

    out = load_bench().compare(
        {"parent": runs([10, 10, 10, 10], [4, 4, 4, 4]),
         "change": runs([15, 10, 9, 12], [2, 4, 5, 3])},
        {"rate": "higher", "time": "lower"},
    )
    rate, time = out["rate"], out["time"]
    # the equal second pair counts for neither side
    assert rate["change_better_pairs"] == 2 and time["change_better_pairs"] == 2
    # medians of the ratios change / parent: (1.0, 1.2) and (0.75, 1.0)
    assert rate["ratio_median"] == pytest.approx(1.1)
    assert time["ratio_median"] == pytest.approx(0.875)
    assert (rate["unit"], rate["better"], time["better"]) == ("1/s", "higher", "lower")
    assert rate["parent"] == {"values": [10] * 4, "median": 10, "q1": 10, "q3": 10}


def test_bench_refuses_an_unknown_parent(tmp_path, monkeypatch, capsys):
    script = load_bench()

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(script, "run_once", no_run)
    monkeypatch.setattr(script, "measure", no_run)
    missing = str(tmp_path / "missing")
    assert script.main(["--parent", missing, "--change", str(ROOT), "--name", "x"]) == 1
    assert "neither a directory nor a git revision" in capsys.readouterr().err
    assert not (ROOT / "BENCH_x.json").exists()
