import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bvalue_survey_stays_under_the_ceilings():
    # also under -OO, which drops the docstrings, so the parser reads none
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for flags in ([], ["-OO"]):
        proc = subprocess.run(
            [sys.executable, *flags, str(ROOT / "scripts" / "bvalue_survey.py"),
             "--primes", "2,3", "--degrees", "1,2"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, (flags, proc.stderr)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    rows = [line.split() for line in outputs[0].splitlines()[2:]]
    assert len(rows) == 8          # 2 primes x 2 degrees x 2 parities
    for field, parity, cases, top, cap, *dist in rows:
        assert int(top) <= int(cap), (field, parity)
        assert sum(int(entry.split(":")[1]) for entry in dist) == int(cases)


def test_code_lines_total_is_the_sum_of_the_modules():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.split() for line in proc.stdout.splitlines())
    total = int(counts.pop("total"))
    modules = {path.stem for path in (ROOT / "src" / "rootstrings").glob("*.py")}
    assert set(counts) == modules
    assert all(int(n) > 0 for n in counts.values())
    assert total == sum(map(int, counts.values()))


def test_each_mutant_names_text_found_once_in_the_current_source():
    # the mutation run's list cannot drift from the code it mutates: each
    # one-line substitution finds its text exactly once, and compiles, and
    # each mutated file has tests to run first against it
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert mutants.check(mutants.MUTANTS) == []


def test_layer_times_prints_each_section_on_small_inputs():
    # CI runs the script with no gate, so a rename of what it times must fail here
    spec = importlib.util.spec_from_file_location("layer_times", ROOT / "scripts" / "layer_times.py")
    layer_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_times)
    number = r"\d+(\.\d+)?"
    assert [re.fullmatch(rf"8 cases in {number} s: {number} us per case", line) is not None
            for line in layer_times.selfcheck_lines([2], [1])] == [True]
    walks = list(layer_times.walk_lines(11, 5, 2))
    assert [line.split(":")[0] for line in walks] == [
        "GF(11), even, A_kk = A_kj = 1", "GF(11), odd, A_kk = 777777, A_kj = 5",
        "GF(5^2), odd, A_kk = 1, A_kj = t", "Q, even, A_kk = 2, A_kj = 1, cap 10^2"]
    # B = p - 2 = 9; 777777 = 0 mod 11, and an odd row with A_kk = 0 has B = 1;
    # 2p - 1 = 9; and no zero up to the cap
    assert [re.fullmatch(rf"[^:]+: (\d+) steps, \d+ ns per step", line).group(1)
            for line in walks] == ["10", "2", "10", "101"]
    documents = list(layer_times.document_lines(4))
    assert [line.split(":")[0] for line in documents] == [
        "GF(9)", "GF(9) table", "GF(125)", "GF(125) table", "GF(p ~ 100)",
        "GF(p ~ 100) table", "GF(p ~ 100) reflect", "Q", "Q table"]
    for line in documents:
        assert re.fullmatch(
            rf"[^:]+: (json\.loads \d+ ns, parse_cartan \d+ ns \({number}x\), table compute "
            rf"\d+ ns per entry|render_document \d+ ns per scalar)", line), line
    # the wide_matrix phase split, in one child process here
    phases = [re.fullmatch(rf"(.+), seed 1, (\d+) requests: read {number} ms, parse {number} ms, "
                           rf"compute {number} ms, render {number} ms; median of 1 processes", line)
              for line in layer_times.phase_lines(processes=1)]
    assert [(m.group(1), int(m.group(2))) for m in phases] == [
        ("GF(9)", 4), ("GF(125)", 4), ("GF(p ~ 100)", 5), ("Q", 4), ("wide_matrix cycle", 17)]
