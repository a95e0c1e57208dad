"""The names perfbench/ reads from powres still exist.

perfbench/spans.py patches every `module.attr` in TRACED by looking it up in
that module's namespace, and perfbench/run.py calls the package API below.
A rename or removal in src/ would break `run.py --trace 1` and selftest.py;
this catches it without running the benchmark.
"""

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
    fields = set(inspect.signature(powres.SweepConfig).parameters)
    for workload in workloads.WORKLOADS.values():
        assert set(workload.sweep) <= fields, workload.sweep
    # run.py writes a sweep as write_records(records, csv_path)
    inspect.signature(powres.write_records).bind([], "x")
    # check.py reads these attributes of every sweep record
    record = powres.run_case(13, 3)
    for attr in ("k", "skip_reason", "lower", "upper_exclusive",
                 "normalized", "max_expsum_ratio", "delta_emp"):
        assert hasattr(record, attr), attr


def test_cli_reads_compute_k_through_its_own_namespace(monkeypatch, capsys):
    # perfbench/selftest.py tampers with the queries answers by patching
    # powres.cli.compute_k; the patch must reach cmd_compute.
    assert "compute_k" in powres.cli.__dict__
    real = powres.cli.compute_k

    def bumped(ctx, n):
        result = real(ctx, n)
        return result.replace(k=result.k + 1)

    monkeypatch.setattr(powres.cli, "compute_k", bumped)
    assert powres.cli.main(["compute", "13", "3", "--json"]) == 0
    assert '"k": 3' in capsys.readouterr().out
