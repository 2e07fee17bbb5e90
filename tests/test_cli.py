import io
import sys

import pytest

from nilcat.catalog import CatalogId, instantiate
from nilcat.cli import format_algebra, main, parse_algebra_text
from nilcat.field import prime_field, rationals

Q = rationals()

WORKED_EXAMPLE = """\
# the recognition walk-through input
field Q
dim 6
[1,2] 3:1 6:1
[1,3] 5:1 6:1
[1,4] 5:1
[2,3] 6:1
[2,4] 5:2 6:1
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def example_file(tmp_path):
    f = tmp_path / "example.alg"
    f.write_text(WORKED_EXAMPLE)
    return str(f)


def test_parse_and_format_round_trip():
    L = parse_algebra_text(WORKED_EXAMPLE)
    assert L.dim == 6 and L.field == Q
    text = format_algebra(L)
    again = parse_algebra_text(text)
    assert again == L


def test_parse_gf_and_fractions():
    L = parse_algebra_text("field GF(7)\ndim 3\n[1,2] 3:1/2\n")
    assert L.field == prime_field(7)
    assert L.structure_constant(0, 1, 2).v == pow(2, -1, 7)


def test_validate_ok_and_fail(tmp_path, capsys):
    good = tmp_path / "good.alg"
    good.write_text("field Q\ndim 3\n[1,2] 3:1\n")
    code, out, _ = run_cli(capsys, "validate", str(good))
    assert code == 0 and out.strip() == "ok"
    bad = tmp_path / "bad.alg"
    bad.write_text("field Q\ndim 3\n[1,2] 3:1\n[1,3] 1:1\n")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1 and "Jacobi" in out


def test_recognize_worked_example(example_file, capsys):
    code, out, _ = run_cli(capsys, "recognize", example_file)
    assert code == 0
    assert out.strip() == "L6_24(eps=-1)"


def test_recognize_emit_iso_round_trip(example_file, capsys):
    code, out, _ = run_cli(
        capsys, "recognize", example_file, "--emit-iso", "--machine"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id: L6_24(eps=-1)"
    rows = [l.split(": ", 1)[1].split() for l in lines[1:] if l.startswith("iso.")]
    from nilcat.linalg import Matrix
    from nilcat.liealg import LinearMap

    M = Matrix.from_rows(Q, rows)
    L = parse_algebra_text(WORKED_EXAMPLE)
    target = instantiate(CatalogId(Q, 6, 24, -1))
    assert LinearMap(L, target, M).is_isomorphism()


def test_recognize_emit_trace(example_file, capsys):
    code, out, _ = run_cli(capsys, "recognize", example_file, "--emit-trace")
    assert code == 0
    assert "QuotientRecognize" in out


def test_count_command(capsys):
    code, out, _ = run_cli(capsys, "count", "--field", "GF(3)", "--dim", "6")
    assert code == 0 and out.strip() == "34"
    code, out, _ = run_cli(capsys, "count", "--field", "Q", "--dim", "5")
    assert code == 0 and out.strip() == "9"
    code, out, _ = run_cli(capsys, "count", "--field", "Q", "--dim", "6")
    assert code == 0 and out.strip() == "infinite"


def test_catalog_list_and_show(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--field", "GF(5)", "--dim", "6")
    assert code == 0
    labels = out.strip().splitlines()
    assert len(labels) == 34
    assert "L6_19(eps=0)" in labels and "L6_26" in labels
    code, out, _ = run_cli(capsys, "catalog", "--field", "Q", "L5_7")
    assert code == 0
    L = parse_algebra_text(out)
    assert L == instantiate(CatalogId(Q, 5, 7))


def test_extend_round_trips_through_validate(tmp_path, capsys):
    base = tmp_path / "l32.alg"
    base.write_text("field Q\ndim 3\n[1,2] 3:1\n")
    # cocycle vectors over pairs (1,2),(1,3),(2,3)
    code, out, _ = run_cli(
        capsys, "extend", str(base), "--cocycles", "0,1,0;0,0,1"
    )
    assert code == 0
    K = parse_algebra_text(out)
    assert K.validate() is None
    assert K == instantiate(CatalogId(Q, 5, 9))


def test_extend_rejects_non_cocycle(tmp_path, capsys):
    base = tmp_path / "l43.alg"
    base.write_text("field Q\ndim 4\n[1,2] 3:1\n[1,3] 4:1\n")
    code, out, err = run_cli(
        capsys, "extend", str(base), "--cocycles", "0,0,0,0,1,0"
    )
    assert code == 1 and "error" in err


def test_isotest(tmp_path, capsys):
    a = tmp_path / "a.alg"
    b = tmp_path / "b.alg"
    a.write_text(format_algebra(instantiate(CatalogId(prime_field(3), 6, 17))))
    b.write_text(format_algebra(instantiate(CatalogId(prime_field(3), 6, 18))))
    code, out, _ = run_cli(capsys, "isotest", str(a), str(b))
    assert code == 0 and out.strip() == "NON_ISO"
    code, out, _ = run_cli(capsys, "isotest", str(a), str(a))
    assert code == 0 and out.splitlines()[0] == "ISO"
    code, out, _ = run_cli(capsys, "isotest", str(a), str(b), "--budget", "5")
    assert code == 0 and out.strip() == "BUDGET"


def test_isotest_dimension_zero(tmp_path, capsys):
    z = tmp_path / "z.alg"
    z.write_text("field GF(3)\ndim 0\n")
    code, out, _ = run_cli(capsys, "isotest", str(z), str(z))
    assert code == 0 and out.splitlines()[0] == "ISO"


def test_domain_error_exit_code(tmp_path, capsys):
    f = tmp_path / "nope.alg"
    f.write_text("field GF(2)\ndim 2\n")
    code, _, err = run_cli(capsys, "validate", str(f))
    assert code == 1 and "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["recognize"])  # missing file argument
    assert exc.value.code == 2


def test_invariants_command(example_file, capsys):
    code, out, _ = run_cli(capsys, "invariants", example_file, "--machine")
    assert code == 0
    assert "lcs_dims: 6 3 2 0" in out
    assert "center_dim: 2" in out


def _recognize_text(tmp_path, capsys, text):
    f = tmp_path / "input.alg"
    f.write_text(text)
    return run_cli(capsys, "recognize", str(f))


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("field Q\ndim x\n", 2),
        ("field Q\ndim 3\n[1,2] 3:1/0\n", 3),
        ("field Q\ndim 3\n[1,2] 3:abc\n", 3),
        ("field Q\ndim 3\n[1 2] 3:1\n", 3),
        ("field GF(3)\ndim 3\n[1,2] 3:1/3\n", 3),
        ("field Q\ndim 3\n[1,2\n", 3),
    ],
    ids=["dim-not-int", "zero-denominator", "bad-scalar", "no-comma", "denominator-mod-p",
         "no-closing-bracket"],
)
def test_malformed_line_is_one_error_line(tmp_path, capsys, text, lineno):
    code, out, err = _recognize_text(tmp_path, capsys, text)
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: line {lineno}:")


@pytest.mark.parametrize(
    "text, lineno, what",
    [
        ("field Q\ndim 3\n[1,2] 3:1\n[1,2] 3:5\n", 4, "repeated bracket [1,2]"),
        ("field Q\ndim 3\n[1,2] 3:1 3:5\n", 3, "repeated component 3"),
        ("field Q\ndim 3\ndim 4\n", 3, "repeated dim header"),
    ],
    ids=["bracket-line", "component", "header"],
)
def test_duplicate_input_is_rejected(tmp_path, capsys, text, lineno, what):
    code, out, err = _recognize_text(tmp_path, capsys, text)
    assert code == 1 and out == ""
    assert err.strip() == f"error: line {lineno}: {what}: {text.splitlines()[lineno - 1]!r}"


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "{alg}", "--cocycles", "abc"],
        ["extend", "{alg}", "--cocycles", "1/0"],
        ["catalog", "--field", "GF(x)"],
        ["count", "--field", "GF(x)", "--dim", "3"],
        ["catalog", "--field", "Q", "L6_19(eps=abc)"],
        ["catalog", "--field", "Q", "L6_19(eps=1/0)"],
    ],
    ids=["cocycle-not-int", "cocycle-zero-denominator", "catalog-field", "count-field",
         "eps-not-int", "eps-zero-denominator"],
)
def test_malformed_argument_is_one_error_line(tmp_path, capsys, argv):
    f = tmp_path / "a.alg"
    f.write_text("field Q\ndim 2\n")
    code, out, err = run_cli(capsys, *(a.format(alg=f) for a in argv))
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
