"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload of ``BENCHMARK.json`` at a tiny size, plain and
traced, and checks that each run prints exactly the metrics the file
names, with their units, and a correct verdict.  It also checks that a
planted wrong expected answer is counted as a failed job without
crashing the run, that a run refuses to time with ``REPRO_TRACE`` set,
and that a directory holding only the benchmark (no library) makes the
run fail without printing a result.  Exits non-zero on the first
problem.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run(workload, trace, *extra, cwd=ROOT, env=None):
    command = [
        sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--tiny", *extra,
    ]
    return subprocess.run(
        command, cwd=cwd, env=env, capture_output=True, text=True, timeout=170, check=False
    )


def result_of(completed, label):
    check(completed.returncode == 0, f"{label} exited {completed.returncode}:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    check(
        sorted(result) == ["attempted", "correct", "failed", "metrics"],
        f"{label} printed keys {sorted(result)}",
    )
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label} attempted")
    check(isinstance(result["failed"], int), f"{label} failed count")
    return result


def check_metrics(result, declared, label):
    printed = result["metrics"]
    check(
        sorted(printed) == sorted(declared),
        f"{label} printed {sorted(printed)}, BENCHMARK.json names {sorted(declared)}",
    )
    for name, unit in declared.items():
        value = printed[name]["value"]
        check(printed[name]["unit"] == unit, f"{label} {name} unit {printed[name]['unit']!r}")
        check(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{label} {name} value {value!r}",
        )


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            result = result_of(run(workload, trace), label)
            check(result["correct"] and result["failed"] == 0, f"{label} verdicts failed")
            check_metrics(result, declared, label)
            print(f"ok  {label}: {result['attempted']} jobs")

        label = f"{workload} --plant-wrong"
        result = result_of(run(workload, 0, "--plant-wrong"), label)
        check(not result["correct"] and result["failed"] >= 1, f"{label} did not count the failure")
        check(result["metrics"]["ok_frac"]["value"] < 1, f"{label} ok_frac")
        print(f"ok  {label}: {result['failed']} of {result['attempted']} jobs failed")

    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, REPRO_TRACE=str(Path(scratch) / "trace.jsonl"))
        completed = run("zoo_small", 0, env=env)
        check(
            completed.returncode != 0 and not completed.stdout.strip(),
            "a run with REPRO_TRACE set was timed",
        )
        print("ok  refuses to time with REPRO_TRACE set")

        bare = Path(scratch) / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        completed = run("zoo_small", 0, cwd=bare)
        check(
            completed.returncode != 0 and not completed.stdout.strip(),
            "a run without the library printed a result",
        )
        print("ok  fails without the library")
    print("selftest passed")


if __name__ == "__main__":
    main()
