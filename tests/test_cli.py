"""Command-line frontend: exit codes, determinism, report contents."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import primpair
from primpair import cli
from primpair.bounds import check_thm34
from primpair.cli import main
from primpair.ffield import make_field
from primpair.ntheory import factor_prime_power_order
from primpair.ratfunc import Poly, is_irreducible


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_subprocess(*argv):
    """(exit code, stdout, stderr) of the CLI in a child process, which a
    timeout stops if it hangs."""
    src = os.path.dirname(os.path.dirname(primpair.__file__))
    proc = subprocess.run([sys.executable, "-m", "primpair.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _package_files() -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file of the installed package but bytecode."""
    package = Path(primpair.__file__).parent
    return {str(f): (f.stat().st_size, f.stat().st_mtime_ns)
            for f in package.rglob("*")
            if f.is_file() and "__pycache__" not in f.parts}


class TestCheckBound:
    def test_known_fail_exits_zero(self, capsys):
        code, out = run(capsys, "check-bound", "--p", "2", "--t", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Fail"
        assert payload["rhs"] == "20/1"

    def test_pass_case(self, capsys):
        code, out = run(capsys, "check-bound", "--p", "89", "--t", "7")
        assert code == 0
        assert json.loads(out)["verdict"] == "Pass"

    def test_partial_exits_three(self, capsys, tmp_path):
        # 2^101 - 1 is a semiprime with both factors above the trial bound,
        # unreachable by a single rho iteration
        code, out = run(capsys, "--budget", "1",
                        "--cache", str(tmp_path / "c.txt"),
                        "check-bound", "--p", "2", "--t", "101")
        assert code == 3
        assert json.loads(out)["verdict"] == "Unknown"

    def test_default_flags_write_no_package_file(self, capsys):
        # by default there is no factor cache, so a cold factorization
        # leaves the installed package as it was
        before = _package_files()
        code, out = run(capsys, "check-bound", "--p", "3", "--t", "101")
        assert code == 0
        assert json.loads(out)["config"]["cache_path"] == ""
        assert _package_files() == before

    def test_rejects_non_prime_power(self, capsys):
        code, out = run(capsys, "--cache", "", "check-bound", "--p", "6", "--t", "7")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_degree_sum_below_one_exits_two(self, capsys, n):
        code, out = run(capsys, "check-bound", "--p", "7", "--t", "7", "--n", n)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("argv", [
        ("check-bound", "--p", "7", "--t", "7"),
        ("sieve", "--p", "2", "--t", "30"),
        ("sieve", "--p", "2", "--t", "22", "--k-primes", "3", "23"),
        ("table1",),
        ("survey", "--t", "9"),
    ])
    def test_degree_sum_one_exits_two(self, capsys, argv):
        # n = 1 has only constant-side classes, which no verdict covers
        code = main(["--cache", "", *argv, "--n", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: degree sum n = 1 must be >= 2\n"

    @pytest.mark.parametrize("command,p", [
        pytest.param(command, p, id=command + suffix)
        for p, suffix in [("3", ""), ("6", "-p6"), ("1", "-p1")]
        for command in ["check-bound", "sieve"]])
    def test_degree_sum_one_caches_nothing(self, capsys, tmp_path, command, p):
        # p and n are checked before p^t - 1 is factored and appended to
        # the cache
        path = tmp_path / "c.txt"
        code = main(["--cache", str(path), command, "--p", p, "--t", "7",
                     "--n", "1"])
        assert (code, capsys.readouterr().out) == (2, "")
        assert not path.exists()

    @pytest.mark.parametrize("command,t,p,err", [
        pytest.param(command, t, p, err, id=f"{command}-{t}{suffix}")
        for p, err, suffix in [("5", "need t >= 5", ""),
                               ("6", "6 is not a prime power", "-p6"),
                               ("1", "1 is not a prime power", "-p1")]
        for command, t in [("check-bound", "3"), ("sieve", "4")]])
    def test_degree_below_five_caches_nothing(self, capsys, tmp_path, command,
                                              t, p, err):
        # p and t are checked with n, before p^t - 1 is factored and cached
        path = tmp_path / "c.txt"
        code = main(["--cache", str(path), command, "--p", p, "--t", t])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")
        assert not path.exists()

    @pytest.mark.parametrize("command", ["check-bound", "sieve"])
    @pytest.mark.parametrize("argv,err", [
        (("--p", "6", "--t", "3", "--n", "1"), "6 is not a prime power"),
        (("--p", "5", "--t", "3", "--n", "1"), "degree sum n = 1 must be >= 2"),
    ])
    def test_checks_run_p_n_t(self, capsys, command, argv, err):
        code = main(["--cache", "", command, *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")

    def test_config_embedded(self, capsys):
        _, out = run(capsys, "--seed", "42", "check-bound", "--p", "2", "--t", "7")
        payload = json.loads(out)
        assert payload["config"]["seed"] == 42
        assert payload["config"]["factor_budget"] == 5_000_000


class TestSieve:
    def test_explicit_k(self, capsys):
        code, out = run(capsys, "sieve", "--p", "2", "--t", "22",
                        "--k-primes", "3", "23")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Pass"
        assert payload["m"] == 2

    def test_auto_search(self, capsys):
        code, out = run(capsys, "sieve", "--p", "8", "--t", "9")
        assert code == 0
        assert json.loads(out)["verdict"] == "Pass"

    @pytest.mark.parametrize("p,t", [(2, 7), (3, 8)])
    def test_empty_k_is_k_one(self, capsys, p, t):
        # --k-primes with no values is k = 1, not the search
        code, out = run(capsys, "--cache", "", "sieve", "--p", str(p),
                        "--t", str(t), "--k-primes")
        assert code == 0
        payload = json.loads(out)
        rep = check_thm34(p, t, 2, factor_prime_power_order(p, t), ())
        assert payload["k_primes"] == []
        assert (payload["m"], Fraction(payload["delta"]), payload["verdict"]) \
            == (rep.m, rep.delta, rep.verdict.value)

    def test_invalid_k_exits_two(self, capsys):
        code, _ = run(capsys, "sieve", "--p", "2", "--t", "22",
                      "--k-primes", "3", "5")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--p", "6", "--t", "7"),
        ("--p", "3", "--t", "8", "--k-primes", "2", "2"),   # repeated k prime
        ("--p", "7", "--t", "7", "--n", "-1"),               # degree sum below 1
    ])
    def test_bad_input_exits_two(self, capsys, argv):
        code, out = run(capsys, "--cache", "", "sieve", *argv)
        assert (code, out) == (2, "")


class TestTable1:
    def test_nine_rows(self, capsys):
        code, out = run(capsys, "table1")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 9
        assert rows[0]["a"] == 13 and rows[0]["b"] == 94
        assert rows[-1]["Wk"] == 32

    def test_degree_sum_below_one_exits_two(self, capsys):
        assert run(capsys, "table1", "--n", "-1") == (2, "")


class TestLemma35:
    def test_reports_failed_published_claim(self, capsys):
        code, out = run(capsys, "lemma35")
        payload = json.loads(out)
        # one printed constant is off by truncation, so the command reports
        # a mismatch against the source
        assert payload["pow2_1547_below_493e463"] is False
        assert payload["product_digits"] == 5589
        assert code == 1


class TestSurvey:
    def test_clean_diff_exits_zero(self, capsys):
        code, out = run(capsys, "survey", "--t", "9", "--paper-diff")
        assert code == 0
        payload = json.loads(out)
        assert payload["paper_diff"]["clean"] is True
        assert len(payload["records"]) == 65    # prime powers below 237

    def test_cold_cache_holds_one_line_per_candidate(self, capsys, tmp_path):
        # p^9 - 1 of each candidate, in survey order, and no cyclotomic part
        path = tmp_path / "c.txt"
        code, out = run(capsys, "--cache", str(path), "survey", "--t", "9")
        assert code == 0
        ps = [rec["p"] for rec in json.loads(out)["records"]]
        ns = [int(line.split()[0][2:]) for line in path.read_text().splitlines()]
        assert ns == [p ** 9 - 1 for p in ps]

    def test_degree_sum_below_one_exits_two(self, capsys):
        assert run(capsys, "survey", "--t", "9", "--n", "0") == (2, "")

    @pytest.mark.parametrize("n", ["1", "3"])
    def test_paper_diff_needs_degree_sum_two(self, capsys, n):
        # the published tables are for n = 2; a diff at another n would
        # report table entries as mismatches
        code = main(["--cache", "", "survey", "--t", "9", "--n", n, "--paper-diff"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: --paper-diff needs --n 2\n"

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run(capsys, "survey", "--t", "11", "--paper-diff")
        _, out2 = run(capsys, "survey", "--t", "11", "--paper-diff")
        assert out1 == out2


class TestWitness:
    def test_single_pair(self, capsys):
        code, out = run(capsys, "witness", "--q", "2", "--t", "7",
                        "--exhaustive", "--a", "1", "--b", "1")
        assert code == 0
        results = json.loads(out)["results"]
        assert results[0]["status"] == "Found"
        assert results[0]["definitive"] is True

    def test_explicit_function(self, capsys):
        # f = 1/x as scale 1, num 1, den x
        code, out = run(capsys, "witness", "--q", "2", "--t", "7",
                        "--f", "1:1:0,1", "--exhaustive")
        assert code == 0
        payload = json.loads(out)
        assert payload["function"]["den"] == [0, 1]
        assert all(r["status"] == "Found" for r in payload["results"])

    def test_subfield_indexing(self, capsys):
        # q = 2, r = 2, t = 3: traces live in GF(4), 16 (a, b) pairs
        code, out = run(capsys, "witness", "--q", "2", "--r", "2", "--t", "3",
                        "--exhaustive")
        payload = json.loads(out)
        assert len(payload["results"]) == 16

    def test_deterministic(self, capsys):
        args = ("--seed", "7", "witness", "--q", "3", "--t", "4")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("bad", [
        ("--a", "5"),              # GF(2) has subfield indices 0 and 1
        ("--a", "-1"),
        ("--b", "2"),
        ("--f", "1:0,1:999,1"),    # element index above Q = 128
        ("--f", "0:0,1:1"),        # zero scale
        ("--f", "1:1,0,1:1"),      # numerator (x + 1)^2 is reducible
        ("--f", "1:0,1:0,1"),      # num = den, not coprime
        ("--f", "1:1:1"),          # constant function
        ("--f", "1:0,1"),          # no denominator
    ])
    def test_rejects_bad_input(self, capsys, bad):
        code, out = run(capsys, "--cache", "", "witness", "--q", "2", "--t", "7",
                        "--a", "0", "--b", "0", *bad)
        assert (code, out) == (2, "")

    def test_constant_side_must_be_one(self, capsys):
        # a degree-0 side 2 is not monic; a monic constant side is 1
        code = main(["--cache", "", "witness", "--q", "3", "--t", "7",
                     "--f", "1:0,1:2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: num and den must be monic\n"

    @pytest.mark.parametrize("flag,value", [("--r", "0"), ("--r", "-1"),
                                            ("--t", "0")])
    def test_degree_below_one_rejected(self, capsys, flag, value):
        # the message names the flag given, not the extension degree r * t
        argv = {"--q": "2", "--t": "5", "--r": "1", flag: value}
        code = main(["--cache", "", "witness",
                     *(x for kv in argv.items() for x in kv)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {flag} must be >= 1\n"

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_search_budget_below_one_rejected(self, capsys, budget):
        # a search of no candidates finds nothing, which is no mismatch
        code = main(["--cache", "", "witness", "--q", "2", "--t", "7",
                     "--search-budget", budget, "--a", "0", "--b", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: --search-budget must be >= 1\n"

    def test_report_n_is_degree_sum_of_f(self, capsys):
        # --n picks the sampled class only; x/(x+1) has degree sum 2
        code, out = run(capsys, "--seed", "0", "witness", "--q", "2", "--t", "7",
                        "--f", "1:0,1:1,1", "--n", "5", "--a", "0", "--b", "0",
                        "--exhaustive")
        assert json.loads(out)["n"] == 2

    @pytest.mark.parametrize("argv,message", [
        (("--t", "20", "--a", "5", "--b", "0"), "subfield index 5 outside [0, 2)"),
        (("--t", "20", "--a", "0", "--b", "-1"), "subfield index -1 outside [0, 2)"),
        (("--r", "2", "--t", "10", "--a", "4", "--b", "0"),
         "subfield index 4 outside [0, 4)"),
        (("--t", "20", "--a", "0"), "--a and --b go together"),
    ])
    def test_subfield_index_checked_before_the_field(self, capsys, monkeypatch,
                                                     argv, message):
        def no_field(*args, **kwargs):
            raise AssertionError("field built before the usage checks")

        monkeypatch.setattr(cli, "make_field", no_field)
        code = main(["--cache", "", "witness", "--q", "2", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {message}\n"

    def test_a_needs_b(self, capsys):
        code, out = run(capsys, "--cache", "", "witness", "--q", "2", "--t", "7",
                        "--a", "1")
        assert (code, out) == (2, "")

    def test_empty_class_exits_two(self):
        # n = 4 samples the (2, 2) class; GF(2) has one monic irreducible
        # quadratic, x^2 + x + 1, and num != den leaves nothing to sample
        code, out, err = run_subprocess("witness", "--q", "2", "--t", "1",
                                        "--n", "4")
        assert (code, out) == (2, "")
        assert err == "error: class (2, 2) is empty over GF(2)\n"

    def test_constant_side_class_degenerates(self, capsys):
        # p = 4, t = 3: for irreducible g = x^2 + ux + v over GF(64) and
        # scale c = u^-2, Tr(c g(eps)) = T^2 + T + Tr(cv) with T = Tr(eps/u),
        # which takes 2 of the 4 values of GF(4).  So the (2, 0) function
        # c g misses every pair (a, b) with b outside those two; the paper's
        # n = 2 class is (1, 1), and this is not a counterexample to it.
        ctx = make_field(2, 6)
        sub = ctx.subfield_elements(2)
        images = {}
        for u in ctx.units():
            c = ctx.inv(ctx.mul(u, u))
            for v in ctx.elements():
                if is_irreducible(ctx, Poly((v, u, ctx.one))):
                    images[c, u, v] = {
                        ctx.trace_rel(ctx.mul(c, ctx.add(ctx.mul(e, ctx.add(e, u)), v)), 2)
                        for e in ctx.elements()}
        assert len(images) == 2016
        assert {len(image) for image in images.values()} == {2}
        for (c, u, v), image in list(images.items())[::673]:
            spec = f"{ctx.to_index(c)}:{ctx.to_index(v)},{ctx.to_index(u)},1:1"
            code, out = run(capsys, "witness", "--q", "2", "--r", "2", "--t", "3",
                            "--f", spec, "--exhaustive")
            assert code == 1
            results = json.loads(out)["results"]
            assert len(results) == 16
            for res in results:
                if sub[res["b_index"]] not in image:
                    assert res["status"] == "NoneExists" and res["definitive"]


class TestCharsumLab:
    def test_indicators_pass(self, capsys):
        code, out = run(capsys, "charsum-lab", "--q", "5", "--m", "2",
                        "--suite", "indicators")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["report"]["mismatches"] == 0

    def test_weil_pass(self, capsys):
        code, out = run(capsys, "charsum-lab", "--q", "3", "--m", "3",
                        "--suite", "weil", "--samples", "5")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_rejected(self, capsys, samples):
        # a run that samples nothing would check nothing and still pass
        code, out = run(capsys, "charsum-lab", "--q", "3", "--m", "3",
                        "--suite", "weil", "--samples", samples)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("suite",
                             ["indicators", "weil", "expansion", "lemma32", "lemma33"])
    def test_gf2_suites_finish_without_traceback(self, suite, seed):
        # on GF(2), Q - 1 = 1 has no prime and no divisor >= 2; a suite that
        # needs one is a usage error, never a crash (exit 1 means a mismatch)
        code, out, err = run_subprocess("--seed", seed, "charsum-lab", "--q", "2",
                                        "--m", "1", "--suite", suite)
        assert code in (0, 2), err
        if code == 0:
            assert json.loads(out)["passed"] is True
        else:
            assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("suite", ["indicators", "weil"])
    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_subfield_degree_below_one_rejected(self, suite, r):
        code, out, err = run_subprocess("--cache", "", "charsum-lab", "--q", "2",
                                        "--m", "5", "--r", r, "--suite", suite)
        assert (code, out) == (2, "")
        assert err == f"error: {r} is not a positive divisor of 5\n"

    @pytest.mark.parametrize("q,m,err", [
        ("2", "20", "field size 1048576 above lab cap 16384"),
        ("3", "9", "field size 19683 above lab cap 16384"),
        ("6", "20", "6 is not prime"),
        # q^m is never written in decimal past 2^64, nor formed past the cap
        ("2", "20000", "field size 2^20000 above lab cap 16384"),
        ("3", str(10 ** 18), f"field size 3^{10 ** 18} above lab cap 16384"),
    ])
    def test_lab_cap_checked_before_the_field(self, capsys, monkeypatch, q, m, err):
        # GF(2^20) took 1.5 s and 171 MB to build, only to be refused
        def no_field(*args, **kwargs):
            raise AssertionError("make_field called")
        if err.startswith("field size"):
            monkeypatch.setattr(cli, "make_field", no_field)
        code = main(["--cache", "", "charsum-lab", "--q", q, "--m", m,
                     "--suite", "indicators"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")

    def test_indicators_check_r_before_any_indicator(self, capsys, monkeypatch):
        def no_indicator(*args):
            raise AssertionError("rho_indicator called")
        monkeypatch.setattr(cli, "rho_indicator", no_indicator)
        code = main(["--cache", "", "charsum-lab", "--q", "2", "--m", "5",
                     "--r", "2", "--suite", "indicators"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: 2 is not a positive divisor of 5\n"

    def test_float_formatting_stable(self, capsys):
        args = ("charsum-lab", "--q", "3", "--m", "3", "--suite", "weil",
                "--samples", "3")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2


# sha256 of charsum-lab stdout at fixed seeds, as computed by the direct
# per-element character expansions; (suite, q, m, r, seed) -> digest
LAB_DIGESTS = {
    ("expansion", 3, 3, 1, 0): "02f680394f1a2f369af4622a985e258391ceb164588581c2a9ec81f032feb897",
    ("expansion", 3, 3, 1, 1): "d07bc773c295fea0785c759e7bf59d9066f6de3d7627c46417a97c2724528644",
    ("expansion", 2, 4, 2, 0): "47b6bee19d99bb6fa52008b46f5e186b11fec5600c63c7bb8e356d1238add611",
    ("expansion", 2, 4, 2, 1): "08d96d4ab847d8350ef9ac670b169acb0397f82fec85c6a7005084d430ea488d",
    ("lemma32", 3, 3, 1, 0): "81989e3e2e4459385dfa691fd11c80a188174c30c63e5237ef5a4a0aed9b8f27",
    ("lemma32", 3, 3, 1, 1): "b10bf7acc550651c18c878a00c6b421004b3cb41ab3fdb4a1b6760caab902897",
    ("lemma32", 2, 4, 2, 0): "67a9bc07805ea2076ac0b1ead2dcc53436f695defd90836c42b0bff0615d46ee",
    ("lemma32", 2, 4, 2, 1): "aa0f1578b6aaf26f7f586c13fb7ffb55bd86c8023807c94ef3b04d1a81b74fb8",
    ("lemma33", 3, 3, 1, 0): "9a15ae6d0949356576400e6363eda54d65c038b665ea104a66d65102f8fee287",
    ("lemma33", 3, 3, 1, 1): "01ff2d48783484fb137ba09c28ffa775aba7baec016464a62a3e842aa2838bb2",
    ("lemma33", 2, 4, 2, 0): "fdb738336fc7af0521105c164e8d016bd3c1db3b66b1898c92228017240dbf89",
    ("lemma33", 2, 4, 2, 1): "2ea84516eceaaed2f2aefe4dbbd417f125b77bdd1cd315ad94825c13f3634b44",
    ("weil", 3, 3, 1, 0): "673d196981eb3684d91142201d6a8a113d633c38a23d7c91effc0b57b1246e78",
    ("weil", 3, 3, 1, 1): "71e894f80eb810dc1128c5e031bd583c9ed692103b9c7ee38eb0ce0f1de7dd16",
    ("weil", 2, 4, 2, 0): "e660f23bb92f54958c5d339ef99430f492768f8575efac2d21ea3d60f7cc52c0",
    ("weil", 2, 4, 2, 1): "a27b011d903155479a41c8e8d68fc04ae4330f7f5f9f21bbca69a1412d56fcef",
    ("indicators", 3, 3, 1, 0): "0f34cd4c1b6f386cab5059e26d6e3b9abd91d54582838c9095399559f8270d43",
    ("indicators", 3, 3, 1, 1): "44e969fbe4e0473832b4e56b753c04092bbc1418f2738148d9482047efaa5ba9",
    ("indicators", 2, 4, 2, 0): "e6d61c18d5ec3bce20ae54f1ede9a69a4c52dca932e057c2f8cba8f07cbe81c1",
    ("indicators", 2, 4, 2, 1): "755b4f7ea6d34e1511134aa6bf9dab2fce6fcb43166f698d6cfe034af3bab170",
}


# sha256 of the JSON stdout of the other subcommands with --cache "";
# argv -> (exit code, digest)
CLI_DIGESTS = {
    ("check-bound", "--p", "2", "--t", "7"):
        (0, "a4e8b104fb57587d481753f1d97a6e59e7214809a97aedb027c06bef4574b3db"),
    ("sieve", "--p", "2", "--t", "22"):
        (0, "f5e22bfa707e080437d2368fb5b482f838309603145a6bb5c59df4640e1ff154"),
    # no k passes: the search reports its largest-margin Fail
    ("sieve", "--p", "3", "--t", "8"):
        (0, "d62430f3813dddf30324b1decb61150bf0f4f710301e8910046546185819d272"),
    ("table1",):
        (0, "0d1c0b00c027883fcef942e3cd9fb16726100e4bb5ab4c5d70da32aa4d5fa5e1"),
    ("lemma35",):
        (1, "6180122438035daf802b74de2e909517fb6e6a99ac0f13c7c61c0decd5c254e7"),
    ("survey", "--t", "9", "--paper-diff"):
        (0, "a0c1c7fa0e04c71fe983bcc73d40f3eebdb010c3cc0e282ce388d8896c423cc7"),
    # the published t = 8 list omits exceptions 193 and 419: exit 1
    ("survey", "--t", "8", "--paper-diff"):
        (1, "1b48cbc1a6d0b564e8c90b4bea994e5372ebe3240a64f7ecfd5a5f190f5b2e83"),
    ("witness", "--q", "2", "--t", "7", "--exhaustive"):
        (0, "61fb19b1a86302f8dc464b4fbe5e4c040d467e46ff2388900d16e7a562df0652"),
    ("witness", "--q", "2", "--r", "2", "--t", "5", "--exhaustive"):
        (0, "d1a59cf3679e2dacbfd669c7c546ab1c608c105a5a2bd1d2d87b5088249d2df2"),
    # the exhaustive trace-pair workloads: every pair of GF(2^13), GF(3^7)
    ("witness", "--q", "2", "--t", "13", "--exhaustive"):
        (0, "a6c22fb83daccbf297745ed06f9d32fe03c2beb6e0693da3164851c6b367772d"),
    ("witness", "--q", "3", "--t", "7", "--exhaustive"):
        (0, "5e74cc04f35a6bdc2fee60b0ba725eac428af3f9348fd8f0b7a3dd0522c32229"),
    # x/(x+1) over GF(2^8) has no witness for (1,1): the scan runs to the end
    ("witness", "--q", "2", "--t", "8", "--f", "1:0,1:1,1", "--exhaustive"):
        (1, "1fafb23a6cb6eaa7e20c41a03a55a95bde4b4235c992af980877876a3c52291c"),
    # the untabled GF(2^22) random search over GF(4)
    ("--seed", "0", "witness", "--q", "2", "--r", "2", "--t", "11"):
        (0, "c4a47780d36736e4b8c5da535ec671c4d6007767b0e21dde706e8e4bce582ae3"),
    ("witness", "--q", "2", "--t", "23"):
        (0, "bc2bb8ba7c31df971401c4fe526446c0e90888def8dd61937079466cde33f069"),
    ("witness", "--q", "3", "--t", "13"):
        (0, "3f07345615b4d4626f1ea672daec86592dab999d7cf430b44e8f698a5237be78"),
    ("witness", "--q", "5", "--t", "9"):
        (0, "86eb3426c4e20ce54f707683fdb9c6f5ce20e281911f2bb9dd1db8e0b01224f4"),
    # witness's own sampling of the classes (1, 0), (2, 1) and (2, 2)
    ("--seed", "3", "witness", "--q", "2", "--t", "7", "--n", "1", "--exhaustive"):
        (0, "c4e94686a49a32832bd4dac03e966a7285f3d3fe1c1f8cd7717bf948ffecf338"),
    ("--seed", "1", "witness", "--q", "3", "--t", "7", "--n", "3"):
        (0, "bbe59296f9340ef222cfea10bf512411be3b21e2f0e445de6eaaa0e69ef4eb09"),
    ("--seed", "2", "witness", "--q", "2", "--r", "2", "--t", "5", "--n", "4",
     "--exhaustive"):
        (0, "48a04e74df6e4950abd8893ea0c8cd85774505882971ed5558747cea70ac9e98"),
    # the edge reports: a partial factorization (W and rhs null, a reason),
    # delta < 0 with no k (Delta and rhs null), and Unknown survey records
    ("--budget", "1", "check-bound", "--p", "2", "--t", "101"):
        (3, "00d4058e482d6936a3e774f9af9a85f3db9aabd6e6d9764daf0538e488b3aa21"),
    ("sieve", "--p", "2", "--t", "60", "--k-primes"):
        (0, "4629715c7d8d74893732012738c5aa4d46ccede9954b869b1d59080ecd5c63e0"),
    ("--budget", "1", "sieve", "--p", "2", "--t", "101"):
        (3, "2cf9e323be1113d446ad3ca57e459dc38c4dbf75e2279b5ddbaaa8a98364b21f"),
    ("--budget", "0", "survey", "--t", "13"):
        (3, "668155e948727d9a335a3542a572c6a95a0d8dc2abe67a6e1ab89b1bf8c8b431"),
    # a field whose order is not fully factored: {"status": "Unresolved"}
    ("--budget", "1", "witness", "--q", "2", "--t", "101"):
        (3, "4e7d7cca4be888ee6a3e8502847fad6819f0376c55a41f1e439bff6ac424f7d3"),
}


class TestStdoutBytes:
    @pytest.mark.parametrize("argv", sorted(CLI_DIGESTS))
    def test_stdout_digest(self, capsys, argv):
        code, out = run(capsys, "--cache", "", *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == CLI_DIGESTS[argv]


class TestCharsumLabBytes:
    @pytest.mark.parametrize("key", sorted(LAB_DIGESTS))
    def test_stdout_digest(self, capsys, key):
        suite, q, m, r, seed = key
        # --cache "" is the default, passed so the pinned bytes never
        # depend on it
        code, out = run(capsys, "--seed", str(seed), "--cache", "",
                        "charsum-lab", "--q", str(q), "--m", str(m),
                        "--r", str(r), "--suite", suite, "--samples", "4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == LAB_DIGESTS[key]


class TestParserReuse:
    """One parser serves every main() call of a process; no call's
    arguments or errors reach the next."""

    SIEVE = ("sieve", "--p", "8", "--t", "9")

    @pytest.mark.parametrize("k_primes,code", [
        (("3", "5"), 2),      # 3 does not divide 8^9 - 1
        (("7", "73"), 0),
    ])
    def test_k_primes_do_not_leak(self, capsys, k_primes, code):
        alone = run_subprocess("--cache", "", *self.SIEVE)
        assert alone[0] == 0
        assert json.loads(alone[1])["k_primes"] == []
        first = run(capsys, "--cache", "", *self.SIEVE, "--k-primes", *k_primes)
        assert first[0] == code
        assert run(capsys, "--cache", "", *self.SIEVE) == alone[:2]

    def test_usage_error_between_calls(self, capsys):
        first = run(capsys, "--cache", "", *self.SIEVE)
        with pytest.raises(SystemExit) as exc:
            main(["sieve", "--p", "8"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "--cache", "", *self.SIEVE) == first

    def test_built_once(self, capsys):
        run(capsys, "table1")
        run(capsys, "lemma35")
        assert cli._build_parser.cache_info().misses <= 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-bound", "--p", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cache", ["missing_dir/c.txt", "."])
    def test_unusable_cache_path(self, tmp_path, cache):
        # appending under a missing directory, loading a directory
        code, out, err = run_subprocess("--cache", str(tmp_path / cache),
                                        "check-bound", "--p", "3", "--t", "7")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_non_utf8_cache_line_is_a_miss(self, capsys, tmp_path):
        # one bad byte in the cache file once made every command exit 2
        path = tmp_path / "c.txt"
        bad = b"n=2186 factors=2^1,1093^1 cofactor=1 status=C note=\xff\n"
        path.write_bytes(bad)
        code, out = run(capsys, "--cache", str(path),
                        "check-bound", "--p", "3", "--t", "7")
        assert code == 0
        _, cold = run(capsys, "--cache", "", "check-bound", "--p", "3", "--t", "7")
        assert out.replace(json.dumps(str(path)), '""') == cold
        assert path.read_bytes() \
            == bad + b"n=2186 factors=2^1,1093^1 cofactor=1 status=C\n"

    def test_format_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "csv", "check-bound", "--p", "2", "--t", "7"])
        assert exc.value.code == 2


class TestErrorContract:
    # bad input from any layer is a ValueError, which main alone turns into
    # exit 2, no stdout and one stderr line with the message word for word
    @pytest.mark.parametrize("argv,message", [
        (["sieve", "--p", "3", "--t", "8", "--k-primes", "7"],
         "7 does not divide 3^8 - 1"),
        (["survey", "--t", "6"], "t = 6 below survey minimum 7"),
        (["witness", "--q", "2", "--t", "1", "--n", "4"],
         "class (2, 2) is empty over GF(2)"),
        (["charsum-lab", "--q", "2", "--m", "1", "--suite", "weil"],
         "Q - 1 = 1 has no character order >= 2"),
        (["charsum-lab", "--q", "2", "--m", "1", "--suite", "lemma32"],
         "Q - 1 = 1 has no prime divisor m"),
        (["check-bound", "--p", "6", "--t", "7"], "6 is not a prime power"),
        (["sieve", "--p", "3", "--t", "8", "--k-primes", "4"], "4 is not prime"),
        (["sieve", "--p", "3", "--t", "8", "--k-primes", "1"], "1 is not prime"),
    ])
    def test_bad_input_exits_two(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
