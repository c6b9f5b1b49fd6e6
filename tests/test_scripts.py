import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bvalue_survey_stays_under_the_ceilings():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bvalue_survey.py"),
         "--primes", "2,3", "--degrees", "1,2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
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
