"""The names perfbench/ reads from powres still exist.

perfbench/spans.py patches every `module.attr` in TRACED by looking it up in
that module's namespace, and perfbench/run.py calls the package API below.
A rename or removal in src/ would break `run.py --trace 1` and selftest.py;
this catches it without running the benchmark.
"""

import dataclasses
import inspect
import sys
from pathlib import Path

import powres
import powres.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_name_is_bound_in_its_module():
    for name in spans.TRACED:
        module, attr = name.split(".")
        assert attr in getattr(powres, module).__dict__, name


def test_runner_api_exists():
    for attr in ("run_case", "SweepConfig", "run_sweep", "write_records",
                 "compute_k", "build_prime_context"):
        assert callable(getattr(powres, attr)), attr
    assert callable(powres.cli.main)
    assert "with_expsums" in inspect.signature(powres.run_case).parameters
    fields = {f.name for f in dataclasses.fields(powres.SweepConfig)}
    for workload in workloads.WORKLOADS.values():
        assert set(workload.sweep) <= fields, workload.sweep
