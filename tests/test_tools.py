"""tools/derive_rho_hints.py, the rho hint file from a factor cache, and
tools/untraced_lines.py, the lines of a package that a pytest run never
reaches."""

import importlib.util
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

from primpair.survey import enumerate_prime_powers, survey_range

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool("derive_rho_hints")

SYNTHETIC = """\
# comment
n=15 factors=3^1,5^1 cofactor=1 status=C
n={a} factors=3^1,100000007^1,1000000007^1 cofactor=1 status=C
n={b} factors=100000007^1,100000037^1,1000000007^1 cofactor=1 status=C
n={c} factors=2^1,100000039^1 cofactor={big} status=P
n={d} factors=100000049^1 cofactor=1 status=C
n={a} factors=3^1,100000007^1 cofactor=1 status=C
n={e} factors=100000073^1,1000000007^0 cofactor=1 status=C
garbage
""".format(a=3 * 100000007 * 1000000007,
           b=100000007 * 100000037 * 1000000007,
           c=2 * 100000039 * 1000000007 ** 2, big=1000000007 ** 2,
           d=100000049, e=100000073)


def test_derive_on_a_synthetic_cache(tmp_path):
    cache = tmp_path / "cache.txt"
    cache.write_text(SYNTHETIC)
    # the largest prime of a complete line is no hint, nor is any prime of
    # a partial or corrupt line, such as one with a zero exponent
    assert tool.derive(SYNTHETIC.encode().splitlines()) == [100000007, 100000037]
    out = tmp_path / "hints.txt"
    assert tool.main([str(cache), str(out)]) == 0
    assert out.read_text() == "100000007\n100000037\n"


def test_non_utf8_line_is_skipped(tmp_path):
    # decoded leniently, the last line would add the hint 100000081; it is
    # no UTF-8, so it is skipped like any corrupt line
    cache = tmp_path / "cache.txt"
    bad = "n={} factors=100000081^1,1000000007^1 cofactor=1 status=C note=".format(
        100000081 * 1000000007).encode() + b"\xff\n"
    cache.write_bytes(SYNTHETIC.encode() + b"\xfe\n" + bad)
    out = tmp_path / "hints.txt"
    assert tool.main([str(cache), str(out)]) == 0
    assert out.read_text() == "100000007\n100000037\n"


def test_usage(capsys):
    assert tool.main([]) == 2
    assert "usage" in capsys.readouterr().err


WARM_CACHE = ROOT / "perfbench" / "data" / "warm_factor_cache.txt"
SHIPPED = resources.files("primpair.data").joinpath("rho_hints.txt")


def test_reproduces_the_shipped_hints(tmp_path):
    # the benchmark's warm cache is the factor cache the package once
    # shipped: cold t = 7 and t = 8 surveys and more
    out = tmp_path / "hints.txt"
    assert tool.main([str(WARM_CACHE), str(out)]) == 0
    assert out.read_bytes() == SHIPPED.read_bytes()


def test_whole_order_lines_alone_give_the_hints():
    # the lines of p^t - 1 for the surveyed (p, t), t = 7..62, without the
    # lines of cyclotomic parts that the cache once also kept
    orders = {p ** t - 1 for t in range(7, 63)
              for p in enumerate_prime_powers(survey_range(t))}
    with open(WARM_CACHE, "rb") as fh:
        lines = [line for line in fh if line.startswith(b"n=")
                 and int(line.split(None, 1)[0][2:]) in orders]
    hints = tool.derive(lines)
    assert "".join(f"{h}\n" for h in hints) == SHIPPED.read_text()


def test_untraced_lines_on_a_tiny_package(tmp_path):
    # one branch that the test reaches and one that it never does; the
    # tool runs pytest on it in a child process of its own
    pkg = tmp_path / "tiny"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "pick.py").write_text(
        "def pick(x):\n"
        "    if x:\n"
        "        return 'yes'\n"
        "    return 'no'\n")
    (tmp_path / "test_pick.py").write_text(
        "from tiny.pick import pick\n\n\n"
        "def test_yes():\n"
        "    assert pick(1) == 'yes'\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "untraced_lines.py"),
         "--package", str(pkg), "-q", "-p", "no:cacheprovider", "test_pick.py"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = [line for line in proc.stdout.splitlines()
              if line.startswith("tiny")]
    assert listed == [os.path.join("tiny", "pick.py") + ":4: return 'no'"]
    assert proc.stdout.splitlines()[-1].startswith(
        "1 of 4 executable lines never ran in this process; lines reached "
        "only in child processes")


def test_executable_lines_include_nested_code(tmp_path):
    untraced = _load_tool("untraced_lines")
    path = tmp_path / "mod.py"
    # line 3 is only in g, a code object nested in f's
    path.write_text("def f():\n    def g():\n        return 1\n    return g\n")
    assert untraced.executable_lines(path) == {1, 2, 3, 4}
