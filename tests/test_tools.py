"""tools/derive_rho_hints.py: the rho hint file from a factor cache."""

import importlib.util
from importlib import resources
from pathlib import Path

from primpair.survey import enumerate_prime_powers, survey_range

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    path = ROOT / "tools" / "derive_rho_hints.py"
    spec = importlib.util.spec_from_file_location("derive_rho_hints", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()

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
    assert tool.derive(SYNTHETIC.splitlines()) == [100000007, 100000037]
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
              for p in enumerate_prime_powers(survey_range(t).p_max)}
    with open(WARM_CACHE) as fh:
        lines = [line for line in fh if line.startswith("n=")
                 and int(line.split(None, 1)[0][2:]) in orders]
    hints = tool.derive(lines)
    assert "".join(f"{h}\n" for h in hints) == SHIPPED.read_text()
