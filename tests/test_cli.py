import csv
import json
import os
import subprocess
import sys

from powres import build_prime_context, cli, compute_k, errors, \
    expsum_profile, modmath, orthogonality_decomposition, phase_table, sweep
from powres.cli import main


def run_cli(*argv, env_extra=None, timeout=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "powres", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout, cwd=cwd)


def test_compute_human():
    proc = run_cli("compute", "13", "3")
    assert proc.returncode == 0
    assert "k(13, 3) = 2" in proc.stdout
    assert "2 <= k < 13/3" in proc.stdout
    assert "PASS" in proc.stdout


def test_compute_json_matches_library():
    proc = run_cli("compute", "13", "3", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    result = compute_k(build_prime_context(13), 3)
    assert doc == {"p": 13, "n": 3, "k": result.k,
                   "lower_num": 2, "lower_den": 1,
                   "upper_num": 13, "upper_den": 3, "sandwich": "pass"}


def test_compute_n1_sandwich_skipped():
    doc = json.loads(run_cli("compute", "13", "1", "--json").stdout)
    assert doc["k"] == 6 and doc["sandwich"] == "skipped"


def test_compute_json_leads_with_the_cells_of_a_sweep_row(tmp_path, capsys):
    path = tmp_path / "13.csv"
    assert main(["sweep", "--p-min", "13", "--p-max", "13", "--n-min", "1",
                 "--out", str(path)]) == 0
    rows = list(csv.reader(path.read_text().splitlines()))[1:]
    exact = sweep.CSV_COLUMNS[:7]
    for n in (3, 1):
        capsys.readouterr()
        assert main(["compute", "13", str(n), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc)[:7] == list(exact)
        row = next(r for r in rows if r[1] == str(n))
        assert [str(doc[key]) for key in exact] == row[:7]
        result = compute_k(build_prime_context(13), n)
        assert sweep.exact_fields(result) == {key: doc[key] for key in exact}


def test_compute_sandwich_failure_exits_1(monkeypatch, capsys):
    real = cli.compute_k
    monkeypatch.setattr(cli, "compute_k", lambda ctx, n:
                        real(ctx, n).replace(k=0))
    assert main(["compute", "13", "3", "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "bound violation" in err


def test_compute_never_factors_p_minus_1(monkeypatch, capsys):
    factored = []
    real = modmath.factorize

    def counted(m):
        factored.append(m)
        return real(m)
    monkeypatch.setattr(modmath, "factorize", counted)
    assert main(["compute", "13", "3"]) == 0
    assert main(["compute", "10009", "9", "--json"]) == 0
    assert "k(13, 3) = 2" in capsys.readouterr().out
    assert factored == []


def test_compute_domain_errors_exit_1():
    proc = run_cli("compute", "13", "6")
    assert proc.returncode == 1
    assert "must be odd" in proc.stderr
    assert proc.stdout == ""
    proc = run_cli("compute", "9", "3")
    assert proc.returncode == 1
    assert "not prime" in proc.stderr


def test_compute_scale_cap_exit_3():
    # |R| = 6 at (31, 5); n = 3 allocates nothing and reads no cap
    proc = run_cli("compute", "31", "5", env_extra={"POWRES_ENUM_CAP": "2"})
    assert proc.returncode == 3
    proc = run_cli("compute", "13", "3", env_extra={"POWRES_ENUM_CAP": "1"})
    assert proc.returncode == 0 and "k(13, 3) = 2" in proc.stdout
    # a cap that is not a positive integer is a usage error naming it
    for bad in ("abc", "", "0", "-5"):
        proc = run_cli("compute", "31", "5",
                       env_extra={"POWRES_ENUM_CAP": bad})
        assert proc.returncode == 2, bad
        assert "POWRES_ENUM_CAP" in proc.stderr, bad
        assert proc.stdout == ""


def test_roots_human_and_json():
    proc = run_cli("roots", "13", "3", "8")
    assert proc.returncode == 0
    assert "{2, 5, 6}" in proc.stdout
    doc = json.loads(run_cli("roots", "13", "3", "8", "--json").stdout)
    assert doc["roots"] == [2, 5, 6]
    assert doc["g"] == 2 and doc["h_generator"] == 3
    assert pow(doc["x0"], 3, 13) == 8


def test_roots_reports_m_reduced_mod_p(capsys):
    # both outputs print m % p, as `decompose` does
    for flags in ([], ["--json"]):
        assert main(["roots", "13", "3", "8", *flags]) == 0
        expected = capsys.readouterr().out
        for m in ("21", "-5"):
            assert main(["roots", "13", "3", m, *flags]) == 0
            assert capsys.readouterr().out == expected, (m, flags)
    assert main(["roots", "13", "3", "21"]) == 0
    assert "x^3 = 8 (mod 13)" in capsys.readouterr().out


def test_roots_identity_set():
    doc = json.loads(run_cli("roots", "13", "3", "1", "--json").stdout)
    assert doc["roots"] == [1, 3, 9]


def test_roots_not_residue_exit_1():
    proc = run_cli("roots", "13", "3", "2")
    assert proc.returncode == 1
    assert "not an n-th power residue" in proc.stderr


def test_roots_bsgs_cap_exit_3():
    # 23 - 1 = 2 * 11: the order-11 baby-step table holds 4 entries
    proc = run_cli("roots", "23", "1", "5", env_extra={"POWRES_ENUM_CAP": "3"})
    assert proc.returncode == 3


def test_roots_at_a_prime_whose_full_group_table_is_over_the_cap():
    # p = 2**61 - 1: the largest prime factor of p - 1 is 1321
    p = 2**61 - 1
    proc = run_cli("roots", str(p), "3", "8", "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["roots"]) == 3
    assert all(pow(x, 3, p) == 8 for x in doc["roots"])


def test_expsum_summary_and_profile():
    ctx = build_prime_context(13)
    profile = expsum_profile(phase_table(ctx), 3)
    doc = json.loads(run_cli("expsum", "13", "3", "--json").stdout)
    assert abs(doc["max_magnitude"] - profile.max_magnitude) < 1e-12
    assert doc["subgroup_order"] == 3
    assert doc["delta_emp"] > 0
    assert "cosets" not in doc
    doc = json.loads(run_cli("expsum", "13", "3", "--profile",
                             "--json").stdout)
    assert len(doc["cosets"]) == 4


def test_expsum_trivial_subgroup_reports_na():
    doc = json.loads(run_cli("expsum", "7", "1", "--json").stdout)
    assert doc["max_magnitude"] == 1.0
    assert doc["delta_emp"] is None
    proc = run_cli("expsum", "7", "1")
    assert "n/a" in proc.stdout


def test_expsum_cap_exit_3():
    proc = run_cli("expsum", "13", "3", env_extra={"POWRES_ENUM_CAP": "2"})
    assert proc.returncode == 3
    assert proc.stdout == ""
    # 5003 roots, above the cap, though the 71-entry baby-step table fits
    proc = run_cli("roots", "10007", "5003", "1",
                   env_extra={"POWRES_ENUM_CAP": "1000"})
    assert proc.returncode == 3
    assert proc.stdout == ""
    # the phase table stands for p - 1 = 1008 phases, above the cap
    proc = run_cli("expsum", "1009", "63",
                   env_extra={"POWRES_ENUM_CAP": "1000"})
    assert proc.returncode == 3
    assert proc.stdout == ""


def test_sweep_over_the_table_cap_keeps_k(tmp_path):
    out = str(tmp_path / "capped.jsonl")
    proc = run_cli("sweep", "--p-min", "1009", "--p-max", "1013",
                   "--with-expsums", "--out", out, "--format", "jsonl",
                   env_extra={"POWRES_ENUM_CAP": "1000"})
    assert proc.returncode == 0, proc.stderr
    with open(out, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert {r["p"] for r in rows} == {1009, 1013}
    for r in rows:
        assert r["k"] is not None and r["skip_reason"] is None
        assert r["max_expsum_ratio"] is None and r["delta_emp"] is None


def test_a_table_above_the_cap_factors_nothing(monkeypatch, tmp_path):
    # g reads the factors of p - 1, so a phase table the cap refuses must
    # fail before g is found
    factored = []
    real = modmath.factorize

    def counted(m):
        factored.append(m)
        return real(m)
    monkeypatch.setattr(modmath, "factorize", counted)
    monkeypatch.setenv("POWRES_ENUM_CAP", "64")
    assert main(["sweep", "--p-max", "3000", "--with-expsums", "--policy",
                 "largest_odd_divisor", "--out", str(tmp_path / "t.csv")]) == 0
    # the tables that fit: p - 1 <= 64 and not a power of two, so n >= 3
    assert len(factored) == 14
    factored.clear()
    assert main(["expsum", "100003", "3"]) == 3
    assert factored == []


def test_expsum_bad_n_exits_before_the_table(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "phase_table",
                        lambda *args, **kwargs: built.append(args))
    assert main(["expsum", "13", "2"]) == 1
    assert "must be odd" in capsys.readouterr().err
    assert built == []


def test_coset_list_and_residue_map_exit_3_before_allocating():
    # (p - 1)/1 = 2**22 + 14 cosets or residues, just above the default cap
    for argv in (("expsum", "4194319", "1"),
                 ("decompose", "4194319", "1", "5", "10"),
                 ("decompose", "4194319", "3", "1", "10")):
        proc = run_cli(*argv, timeout=10)
        assert proc.returncode == 3, proc.stderr
        assert "cap" in proc.stderr and proc.stdout == ""


def test_decompose_matches_library():
    ctx = build_prime_context(13)
    result = orthogonality_decomposition(ctx, 3, 8, 6)
    doc = json.loads(run_cli("decompose", "13", "3", "8", "6",
                             "--json").stdout)
    assert doc["exact_count"] == 3
    assert abs(doc["main_term"] - result.main_term) < 1e-12
    assert abs(doc["reconstruction"] - result.reconstruction) < 1e-12
    assert doc["residual"] < 1e-6
    # m is reported reduced mod p, as `roots` reports it
    for m in ("21", "-5"):
        other = json.loads(run_cli("decompose", "13", "3", m, "6",
                                   "--json").stdout)
        assert other["m"] == 8 and other == doc, m


def test_decompose_bad_radius_exit_1():
    proc = run_cli("decompose", "13", "3", "8", "0")
    assert proc.returncode == 1


def test_sweep_writes_file_and_summary(tmp_path):
    out = str(tmp_path / "sweep.csv")
    proc = run_cli("sweep", "--p-max", "100", "--out", out, "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["cases"] > 0 and doc["skipped"] == 0
    assert doc["normalized_min"] >= 1.0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("p,n,k,")
    assert len(lines) == doc["cases"] + 1


def test_sweep_worker_counts_byte_identical(tmp_path):
    outs = []
    for i, workers in enumerate(("1", "8")):
        out = str(tmp_path / f"sweep{i}.jsonl")
        # p <= 3000 is above the work estimate that starts a pool
        proc = run_cli("sweep", "--p-max", "3000", "--out", out,
                       "--format", "jsonl", "--workers", workers)
        assert proc.returncode == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_sweep_to_dev_stdout_appends_to_a_redirected_file(tmp_path):
    log = tmp_path / "log.txt"
    log.write_text("before\n")
    with open(log, "a") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "powres", "sweep", "--p-max", "13",
             "--out", "/dev/stdout"], stdout=fh, stderr=subprocess.PIPE,
            text=True)
    assert proc.returncode == 0, proc.stderr
    text = log.read_text()
    assert text.startswith("before\np,n,k,")
    assert "13,3,2,2,1,13,3,1.0,,,\n" in text
    assert text.endswith("wrote 3 records to /dev/stdout (csv)\n")


def test_sweep_unusable_out_is_usage_error_naming_the_path(tmp_path):
    # Run from a subdirectory: an empty path resolves to the working
    # directory, so a stray temp file would land beside it, in tmp_path.
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for out in (str(tmp_path / "missing" / "x.csv"), "/dev/fd/9", ""):
        proc = run_cli("sweep", "--p-max", "13", "--out", out, cwd=cwd,
                       env_extra={"PYTHONPATH": src})
        assert proc.returncode == 2, (out, proc.stderr)
        assert "--out" in proc.stderr and out in proc.stderr
        assert ".tmp" not in proc.stderr and proc.stdout == ""
    assert list(tmp_path.rglob("*")) == [cwd]


def test_sweep_refuses_unusable_out_before_running(tmp_path, monkeypatch,
                                                  capsys):
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda config: calls.append(config))
    read_end, write_end = os.pipe()
    os.close(read_end)
    os.close(write_end)  # a descriptor this process has just closed
    for out in (str(tmp_path / "missing" / "x.csv"), str(tmp_path),
                f"/dev/fd/{write_end}", ""):
        assert main(["sweep", "--p-max", "50", "--out", out]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write --out {out}: "), err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_sweep_reports_skips_without_failing(tmp_path):
    out = str(tmp_path / "capped.jsonl")
    # (31, 5), |R| = 6, is skipped; n = 3 never is
    proc = run_cli("sweep", "--p-max", "31", "--out", out, "--format",
                   "jsonl", "--json", env_extra={"POWRES_ENUM_CAP": "4"})
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["skipped"] > 0
    rows = [json.loads(line) for line in open(out, encoding="utf-8")]
    assert any(r["skip_reason"] for r in rows)


def test_sweep_empty_range_exit_2(tmp_path):
    proc = run_cli("sweep", "--p-min", "8", "--p-max", "10",
                   "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2


def test_sweep_bad_flag_exit_2(tmp_path):
    proc = run_cli("sweep", "--p-max", "100", "--format", "xml",
                   "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2


def test_sweep_with_expsums_reports_ratio_range(tmp_path):
    out = str(tmp_path / "sweep.csv")
    doc = json.loads(run_cli("sweep", "--p-max", "100", "--with-expsums",
                             "--out", out, "--json").stdout)
    assert 0 < doc["max_expsum_ratio_min"] <= doc["max_expsum_ratio_max"] < 1
    proc = run_cli("sweep", "--p-max", "100", "--with-expsums", "--out", out)
    assert "max|S|/|H|: [" in proc.stdout
    plain = json.loads(run_cli("sweep", "--p-max", "100", "--out", out,
                               "--json").stdout)
    assert "max_expsum_ratio_min" not in plain


def test_sieve_cap_exits_3_before_sieving(tmp_path):
    out = str(tmp_path / "x.csv")
    for argv in (("sweep", "--p-max", "1000000000000", "--out", out),
                 ("verify", "--p-max", "1000000000000")):
        proc = run_cli(*argv, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert "sieve cap" in proc.stderr
    assert not os.path.exists(out)


def test_sweep_even_fixed_n_exit_2(tmp_path):
    proc = run_cli("sweep", "--p-max", "100", "--policy", "fixed_n",
                   "--fixed-n", "4", "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "fixed_n" in proc.stderr
    # --fixed-n without --policy fixed_n would be ignored
    for policy in ((), ("--policy", "largest_odd_divisor")):
        proc = run_cli("sweep", "--p-min", "29", "--p-max", "31", *policy,
                       "--fixed-n", "5", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "fixed_n" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_verify_passes_small_range():
    proc = run_cli("verify", "--p-max", "1000")
    assert proc.returncode == 0
    assert "cases pass" in proc.stdout
    doc = json.loads(run_cli("verify", "--p-max", "100", "--json").stdout)
    assert doc["ok"] is True and doc["violations"] == []


def test_verify_includes_the_13_3_case():
    doc = json.loads(run_cli("verify", "--p-max", "13", "--json").stdout)
    assert doc["cases"] >= 2  # (7,3) and (13,3) at least
    assert doc["ok"] is True


def test_verify_capped_case_is_a_size_error():
    # (7, 3) passes under any cap; (11, 5), |R| = 2, is the first refused
    proc = run_cli("verify", "--p-max", "13",
                   env_extra={"POWRES_ENUM_CAP": "1"})
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: case p=11 n=5 ")
    assert "cap 1" in proc.stderr


def test_verify_sandwich_failure_exits_1(monkeypatch, capsys):
    real_k = sweep.compute_k
    monkeypatch.setattr(sweep, "compute_k", lambda ctx, n, **kw:
                        real_k(ctx, n, **kw).replace(k=0))
    assert main(["verify", "--p-max", "13"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "bound violation" in err


def test_verify_empty_range_exit_2():
    proc = run_cli("verify", "--p-max", "4")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_unknown_command_exit_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_exit_code_of_each_error_type(monkeypatch, capsys):
    cases = [(errors.BadN, 1), (errors.InvariantViolation, 1),
             (errors.EmptyRange, 2), (errors.ScaleLimit, 3),
             (errors.NotEnumerated, 3), (ValueError, 2), (OSError, 1)]
    for exc_type, code in cases:
        def fail(args, exc_type=exc_type):
            raise exc_type(f"raised {exc_type.__name__}")
        monkeypatch.setattr(cli, "cmd_compute", fail)
        assert main(["compute", "13", "3"]) == code, exc_type
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: raised {exc_type.__name__}\n"
    types = [t for t in vars(errors).values()
             if isinstance(t, type) and issubclass(t, errors.PowresError)]
    assert errors.NotEnumerated in types
    assert all(t.exit_code in (1, 2, 3) for t in types)


def test_json_mode_keeps_stdout_clean_on_error():
    proc = run_cli("compute", "9", "3", "--json")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip() != ""
