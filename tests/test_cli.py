"""The command-line front end: serialization round-trips, stable formats,
and exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clawtoric
from clawtoric import cli
from clawtoric.cli import (
    ENV_CAP,
    MAX_GENERATORS,
    MAX_RECORDED_PAIRS,
    RunConfig,
    binomial_from_dict,
    binomial_to_dict,
    cas_script,
    main,
    run,
    sorted_group,
)
from clawtoric.core import Binomial, Monomial, Word
from clawtoric.ideal import build_generators
from clawtoric.lattice import build_lattice_basis, lattice_binomials


def binom(text: str) -> Binomial:
    plus_text, minus_text = text.split(" - ")
    def side(t: str) -> Monomial:
        return Monomial.of(*(Word.from_string(f[2:]) for f in t.split("*")))
    return Binomial(side(plus_text), side(minus_text))


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def test_binomial_dict_uses_descending_coordinate_order():
    b = binom("q_0000*q_1111 - q_1001*q_0110")
    assert binomial_to_dict(b) == {
        "n": 4,
        "plus": ["0000", "1111"],
        "minus": ["0110", "1001"],
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_binomial_dict_round_trips_every_generator(n):
    for b in build_generators(n).sorted_generators():
        assert binomial_from_dict(binomial_to_dict(b)) == b


def test_json_export_parses_back_to_the_same_generators(capsys):
    code, out, _ = run_cli(capsys, "export", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["total"] == 30
    gens = build_generators(4)
    fixed = frozenset(binomial_from_dict(d) for d in payload["fixed_leaf"])
    comp = frozenset(binomial_from_dict(d) for d in payload["complementary"])
    assert fixed == gens.fixed_leaf
    assert comp == gens.complementary


def test_ideal_json_is_the_json_dump_of_the_sorted_groups(capsys):
    for n in (3, 4, 5, 6):
        gens = build_generators(n)
        payload = {
            "n": n,
            "total": len(gens),
            "fixed_leaf": [binomial_to_dict(b) for b in sorted_group(gens.fixed_leaf)],
            "complementary": [binomial_to_dict(b) for b in sorted_group(gens.complementary)],
        }
        code, out, _ = run_cli(capsys, "ideal", "--n", str(n), "--format", "json")
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"


def test_json_lists_are_sorted_by_leading_monomial(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for group in ("fixed_leaf", "complementary"):
        parsed = [binomial_from_dict(d) for d in payload[group]]
        assert parsed == sorted_group(parsed)


# ---------------------------------------------------------------------------
# CSV and plain formats
# ---------------------------------------------------------------------------


def test_matrix_csv_golden_two_leaves(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == (
        "label,00,01,10,11\n"
        "a_0^(1),1,1,0,0\n"
        "a_0^(2),1,0,1,0\n"
        "a_0^(3),1,0,0,1\n"
        "a_1^(1),0,0,1,1\n"
        "a_1^(2),0,1,0,1\n"
        "a_1^(3),0,1,1,0\n"
    )


def test_lattice_csv_matches_the_basis_rows(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    basis = build_lattice_basis(4)
    assert lines[0] == "row," + ",".join(str(w) for w in basis.col_labels)
    assert len(lines) == 1 + basis.shape[0]
    for r, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert cells[0] == str(r)
        assert [int(c) for c in cells[1:]] == [int(e) for e in basis.rows[r - 1]]


def test_ideal_csv_has_one_row_per_generator(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group,plus_1,plus_2,minus_1,minus_2"
    assert len(lines) == 1 + 30
    assert sum(1 for l in lines[1:] if l.startswith("fixed-leaf,")) == 24
    assert sum(1 for l in lines[1:] if l.startswith("complementary,")) == 6
    assert lines[1] == "fixed-leaf,0000,0111,0011,0100"


def test_ideal_plain_lists_every_generator(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--n", "3")
    assert code == 0
    assert "generating set, n = 3: 3 generators (0 fixed-leaf, 3 complementary)" in out
    for text in (
        "  q_000*q_111 - q_011*q_100",
        "  q_001*q_110 - q_011*q_100",
        "  q_010*q_101 - q_011*q_100",
    ):
        assert text in out


def test_matrix_plain_golden_two_leaves(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--n", "2")
    assert code == 0
    assert out.splitlines()[:3] == [
        "incidence matrix, n = 2: 6 rows x 4 columns",
        "        00 01 10 11",
        "a_0^(1)  1  1  0  0",
    ]


# ---------------------------------------------------------------------------
# CAS scripts
# ---------------------------------------------------------------------------


def test_cas_script_golden_three_leaves(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--n", "3", "--format", "cas-script")
    assert code == 0
    assert out == (
        "// kernel ideal generators, n = 3: 3 generators over 8 coordinates\n"
        "ring r = 0, (q_000, q_001, q_010, q_011, q_100, q_101, q_110, q_111), lp;\n"
        "ideal I =\n"
        "  q_000*q_111 - q_011*q_100,\n"
        "  q_001*q_110 - q_011*q_100,\n"
        "  q_010*q_101 - q_011*q_100;\n"
    )


def test_cas_script_declares_every_coordinate():
    text = cas_script(list(build_generators(4).sorted_generators()), 4, "check")
    ring_line = next(l for l in text.splitlines() if l.startswith("ring"))
    assert ring_line.count("q_") == 16
    assert ring_line.endswith("lp;")
    assert text.count("\n  q_") == 30


def test_cas_script_of_nothing_is_the_zero_ideal():
    text = cas_script([], 3, "check")
    assert "ideal I = 0;" in text
    assert text.endswith(";\n")


def test_lattice_cas_script_lists_the_row_binomials(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--n", "3", "--format", "cas-script")
    assert code == 0
    for b in lattice_binomials(build_lattice_basis(3)):
        assert str(b) in out


# ---------------------------------------------------------------------------
# verification commands and exit codes
# ---------------------------------------------------------------------------


def test_verify_groebner_passes_for_three_leaves(capsys):
    code, out, _ = run_cli(capsys, "verify-groebner", "--n", "3")
    assert code == 0
    assert "result: GROEBNER" in out
    assert "pairs total:            3" in out


def test_verify_groebner_fails_for_five_leaves(capsys):
    code, out, _ = run_cli(capsys, "verify-groebner", "--n", "5")
    assert code == 1
    assert "result: NOT GROEBNER" in out


def test_verify_groebner_json_certificate(capsys):
    code, out, _ = run_cli(capsys, "verify-groebner", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_groebner"] is True
    assert payload["failures"] == []
    assert len(payload["pairs"]) == payload["pairs_total"]
    accounted = (
        payload["reduced"]
        + payload["spoly_zero"]
        + payload["skipped_coprime"]
        + payload["skipped_shared_trailing"]
    )
    assert accounted == payload["pairs_total"]


def test_verify_groebner_strict_flag(capsys):
    code, out, _ = run_cli(capsys, "verify-groebner", "--n", "4", "--strict")
    assert code == 0
    assert "strict" in out
    assert "skipped coprime:        0" in out


# sha256 of the `clawtoric verify-groebner --n 5 --format json` certificates
# (every pair recorded); strict as first released, the default mode since it
# skips coprime pairs only
VERIFY_N5_JSON_SHA256 = {
    "--strict": "b577c95ba2ed286143f85a03fb12a6e5f0ec193164ddb819407b182f942b9603",
    "": "da598796239e7b0504d2dd77c17e70721b5e676dca85670d4e6e31e729a73669",
}


@pytest.mark.parametrize("mode", sorted(VERIFY_N5_JSON_SHA256))
def test_verify_groebner_json_certificate_bytes_at_five_leaves(capsys, mode):
    argv = ["verify-groebner", "--n", "5", "--format", "json"] + ([mode] if mode else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_N5_JSON_SHA256[mode]


def refuse_to_run(*args, **kwargs):
    raise AssertionError("work started")


def test_json_certificate_refuses_more_pairs_than_it_can_hold(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_generators", refuse_to_run)
    code, out, err = run_cli(capsys, "verify-groebner", "--n", "7", "--format", "json")
    assert code == 2
    assert out == ""
    assert "13017753" in err and "plain output has no such limit" in err
    assert "Traceback" not in err


def test_json_certificate_accepts_six_leaves(monkeypatch):
    assert 550_725 <= MAX_RECORDED_PAIRS < 13_017_753
    # past the size check, the run goes on to build the generators
    monkeypatch.setattr(cli, "build_generators", refuse_to_run)
    with pytest.raises(AssertionError, match="work started"):
        run(RunConfig(command="verify-groebner", n=6, format="json"))


@pytest.mark.parametrize("command", ["ideal", "export"])
@pytest.mark.parametrize("n, count", [(12, 7_597_590), (16, 2_083_011_870)])
def test_ideal_and_export_refuse_more_generators_than_they_can_hold(
    capsys, monkeypatch, tmp_path, command, n, count
):
    monkeypatch.setattr(cli, "build_generators", refuse_to_run)
    out_file = tmp_path / "never.txt"
    code, out, err = run_cli(
        capsys, command, "--n", str(n), "--format", "json", "--out", str(out_file)
    )
    assert code == 2
    assert out == ""
    assert f"{count} generators" in err and f"limit {MAX_GENERATORS}" in err
    assert "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("n", [10, 11])
def test_ideal_accepts_ten_and_eleven_leaves(monkeypatch, n):
    assert 1_834_503 <= MAX_GENERATORS < 7_597_590
    monkeypatch.setattr(cli, "build_generators", refuse_to_run)
    for command in ("ideal", "export"):
        with pytest.raises(AssertionError, match="work started"):
            run(RunConfig(command=command, n=n, format="json"))


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = Path(clawtoric.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "clawtoric", "verify-groebner", "--n", "3"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "result: GROEBNER" in done.stdout


def test_oracle_compare_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle-compare", "--n", "3")
    assert code == 0
    assert "overall: OK" in out


def test_oracle_compare_json_reports_every_check(capsys):
    code, out, _ = run_cli(capsys, "oracle-compare", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["enumerated"] == 60
    assert all(check["ok"] for check in payload["checks"])


def test_oracle_compare_skips_enumeration_for_large_n(capsys):
    code, out, _ = run_cli(capsys, "oracle-compare", "--n", "6")
    assert code == 0
    assert "degree-2 enumeration: skipped (n > 5)" in out


# sha256 of `clawtoric oracle-compare --n N --format F`
ORACLE_COMPARE_SHA256 = {
    (3, "plain"): "4a57bb06032aad0140de067aa39d4c11493f747a94e4fe4553ddbcaf3758928c",
    (3, "json"): "4ec5a17d52e497cd4dc17b6335bd74fbce19a176bcb938d14b2b691ea22d5948",
    (4, "plain"): "a917cc25651e7bd52c80d132b0dad127c658304784205d6b882c18ff35c562b9",
    (4, "json"): "70c13bbaefff9611974a8986acdad771a8103f03b42eed9cbafde03f14cf9e2b",
    (5, "plain"): "384995c6c62cef53f9c2358a2eef6f2bb6bf0720a60339563848b0d6963f872e",
    (5, "json"): "7852d39102a85577569247cf1eb58a44af1b4b79b2ea5a99e5f3e398e1fb5423",
    (6, "plain"): "4493bdbeab5885ede8183580e89e01f6e308d49cdf3b9d6a291dfe7cd2d55840",
    (6, "json"): "ce3e0e6cfc156c7dcc619eae51dedf9fb40008a757990ee4216e46f756727e1b",
    (7, "plain"): "6002b9d4bc2e265c6ca6e952926007402fa4e880949f5833e3f7d51c5795ced2",
    (7, "json"): "b166dd1d7aa7dc2a4d8498921d86faedc55e522032e1b94283f9693e9724c73b",
    (8, "plain"): "f3480557c495b6d8f22a03b4b6683b188a4b5b1480e6fb05092afc5a08e8ca18",
    (8, "json"): "cce4376e01d352dfabd8df54a5cd375215d945a4c882ecf84603d7e4512d7dc6",
    (9, "plain"): "312d408a8d280c7646fff349947f6123f5d15fffebe7f99d40e1bdbd74405e51",
    (9, "json"): "1ab1792f349724b2246cd6258e2db506a7f40d4f3d24b759614cff3a48bb8940",
    (10, "plain"): "ff0c9199f031d11bebd215fcee99bf1c7707eddbfdc1fedb50e80cd7c520718c",
    (10, "json"): "0cee825c63b25b4339fb05c6d66f9c04fc6bd19edad1fd2c3add55f3adc2dd57",
}


@pytest.mark.parametrize("n, fmt", sorted(ORACLE_COMPARE_SHA256))
def test_oracle_compare_output_bytes(capsys, monkeypatch, n, fmt):
    if n > 5:
        # past the degree-2 enumeration the generating set is never needed
        monkeypatch.setattr(cli, "build_generators", refuse_to_run)
    code, out, _ = run_cli(capsys, "oracle-compare", "--n", str(n), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ORACLE_COMPARE_SHA256[n, fmt]


# sha256 of `clawtoric lattice --n N --format F`
LATTICE_SHA256 = {
    (3, "plain"): "6dc4037049831d500dec132132f48249960de643f10130338e04e14d5ff84ec0",
    (3, "csv"): "02b6403cab8deb3121f1cee5b4d54a6c4b0627ffeba02d90f12de0e3fdb9a913",
    (3, "json"): "122e4d74c0e926a45628202da410a8848995ee247ff6b1cd9f5c9edbf2f7633e",
    (3, "cas-script"): "23c4f531b9ba7f0aebfa8f45e641ff003976937aa44f97e5d29f57d175beeb99",
    (6, "plain"): "c67677a9188d3c3874e96a7c3e4edd474a13e7ad260c1064938823fdb7e54907",
    (6, "csv"): "4761e5af2672594dca49a991fa8de47f54603f89f1f9aeb4f8e429899c57f6a2",
    (6, "json"): "c88e51dd4d64596ebe96c491652da33c237069c524baaffc1ef4d25842586bb9",
    (6, "cas-script"): "7fc0680dca04e5f182c5925164089975d2cc877b29135deb86084d900f066326",
    (7, "plain"): "8ee22d6e6762d54dbface24b812ff6c069a0eef1eaa3c6053e859186831b4d57",
    (7, "csv"): "36625fccc1d198d93ab02db12b1f5d932ed0f58cc659f42d2a9ea134dad6a13f",
    (7, "json"): "cc832ee3b6ec47b42b2ea52fbbae972828a033225e2b7262fd5081dc80a5f8ad",
    (7, "cas-script"): "0f7c308ad44ffee811ecd787c2546227d1b1f136b1163b47dea9a175c71badb4",
}


@pytest.mark.parametrize("n, fmt", sorted(LATTICE_SHA256))
def test_lattice_output_bytes(capsys, monkeypatch, n, fmt):
    if fmt == "csv":
        # the csv lists the rows only
        monkeypatch.setattr(cli, "lattice_binomials", refuse_to_run)
    code, out, _ = run_cli(capsys, "lattice", "--n", str(n), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LATTICE_SHA256[n, fmt]


# ---------------------------------------------------------------------------
# determinism and file output
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("ideal", "--n", "4", "--format", "json"),
        ("matrix", "--n", "3", "--format", "csv"),
        ("export", "--n", "4", "--format", "cas-script"),
        ("lattice", "--n", "4"),
    ],
)
def test_repeated_runs_are_byte_identical(capsys, argv):
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert first


def test_out_flag_writes_the_same_bytes_to_a_file(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "ideal", "--n", "4", "--format", "json")
    target = tmp_path / "ideal.json"
    code, out, _ = run_cli(
        capsys, "ideal", "--n", "4", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


@pytest.mark.parametrize("target", ["missing/x", "."], ids=["missing-directory", "directory"])
def test_unwritable_out_path_is_a_usage_error(capsys, tmp_path, target):
    path = tmp_path / target
    code, out, err = run_cli(capsys, "matrix", "--n", "3", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_unwritable_out_path_fails_before_any_work(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "verify_groebner", refuse_to_run)
    target = str(tmp_path / "missing" / "cert.txt")
    code, _, err = run_cli(capsys, "verify-groebner", "--n", "5", "--strict", "--out", target)
    assert code == 2
    assert err.startswith(f"error: cannot write {target}: ")


# sha256 of `clawtoric ideal --n 7` in each format, as first released
IDEAL_N7_SHA256 = {
    "plain": "4ea31a0d4e30191eaf95a127de60fb0745575ec696bb3a4dcd07756f4d4248d2",
    "csv": "d65a530d455cc85bf912f1f49b7da8c707c4e1f890164a815cbd5342a78e3b5f",
    "json": "5db9326d9508677e64c85e384290737f6b00fe1ec5eb54c2a2346d9a21855ac3",
    "cas-script": "1c954d24252ebbd1c8cb9961c7a6c422d299bed6cf9ebb8c9011b2dbf84201ba",
}


@pytest.mark.parametrize(
    "command,fmt",
    [("ideal", fmt) for fmt in IDEAL_N7_SHA256] + [("export", "json"), ("export", "cas-script")],
)
def test_generating_set_output_bytes_at_seven_leaves(capsys, command, fmt):
    code, out, _ = run_cli(capsys, command, "--n", "7", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == IDEAL_N7_SHA256[fmt]


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------


def test_no_command_is_a_usage_error(capsys):
    assert run_cli(capsys, *[])[0] == 2


def test_unknown_command_is_a_usage_error(capsys):
    assert run_cli(capsys, "frobnicate", "--n", "3")[0] == 2


def test_run_refuses_an_unknown_command_before_any_output(tmp_path):
    target = tmp_path / "never.txt"
    for config in (RunConfig("bogus", 4), RunConfig("bogus", 4, out=str(target))):
        with pytest.raises(ValueError, match="^unknown command 'bogus'$"):
            run(config)
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--n", "1"),
        ("lattice", "--n", "2"),
        ("ideal", "--n", "2"),
        ("matrix", "--n", "17"),
        ("ideal", "--n", "5", "--cap", "4"),
    ],
)
def test_out_of_range_n_is_a_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error" in err.lower()


def test_matrix_accepts_two_leaves_but_lattice_does_not(capsys):
    assert run_cli(capsys, "matrix", "--n", "2")[0] == 0
    assert run_cli(capsys, "lattice", "--n", "2")[0] == 2


def test_format_not_offered_by_the_command_is_rejected(capsys):
    assert run_cli(capsys, "matrix", "--n", "3", "--format", "cas-script")[0] == 2
    with pytest.raises(ValueError):
        run(RunConfig(command="matrix", n=3, format="cas-script"))


def test_help_exits_cleanly(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert "matrix" in out + err


def test_environment_variable_sets_the_default_cap(capsys, monkeypatch):
    monkeypatch.setenv(ENV_CAP, "4")
    assert run_cli(capsys, "matrix", "--n", "5")[0] == 2
    assert run_cli(capsys, "matrix", "--n", "4")[0] == 0
    assert run_cli(capsys, "matrix", "--n", "5", "--cap", "6")[0] == 0


def test_malformed_cap_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(ENV_CAP, "banana")
    code, out, err = run_cli(capsys, "matrix", "--n", "5")
    assert code == 2
    assert out == ""
    assert ENV_CAP in err and "banana" in err
    # an explicit --cap does not consult the variable
    assert run_cli(capsys, "matrix", "--n", "5", "--cap", "6")[0] == 0
