import hashlib
import json
from pathlib import Path
from types import MappingProxyType

import pytest

import qfock.cli
import qfock.qsym
import qfock.verify
from qfock.barinv import BarContext
from qfock.cli import main, parse_parabolic, parse_shape, parse_window
from qfock.fock import FockVector
from qfock.laurent import LaurentPoly, NotDivisible
from qfock.reports import character_table
from qfock.weightlat import CheckFailed, Parabolic, Shape, SignedTuple, Window

GOLDEN = Path(__file__).parent / "golden"


class TestParsers:
    def test_shape(self):
        assert parse_shape("2|1") == Shape(2, 1)
        with pytest.raises(ValueError):
            parse_shape("2x1")

    def test_window(self):
        assert parse_window("-2..2") == Window(-2, 2)
        assert parse_window("0..3") == Window(0, 3)
        with pytest.raises(ValueError):
            parse_window("3")

    def test_parabolic(self):
        sh = Shape(2, 2)
        assert parse_parabolic("s1,s3", sh) == Parabolic(sh, frozenset({1, 3}))
        assert parse_parabolic("1,3", sh) == Parabolic(sh, frozenset({1, 3}))
        assert parse_parabolic("e", sh) == Parabolic.trivial(sh)
        assert parse_parabolic("full", sh) == Parabolic.full(sh)
        assert parse_parabolic(None, sh) == Parabolic.full(sh)
        with pytest.raises(ValueError):
            parse_parabolic("sx", sh)


class TestBkl:
    def test_canonical_text(self, capsys):
        rc = main(["bkl", "--shape", "1|1", "--tuple", "3|3", "--window", "0..3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "canonical basis element" in out
        assert "q * M[2|2]" in out
        assert "1 * M[3|3]" in out

    def test_dual_json(self, capsys):
        rc = main(
            ["bkl", "--shape", "1|1", "--tuple", "3|3", "--window", "0..3",
             "--mode", "dual", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "dual"
        assert data["target"] == "3|3"
        assert len(data["coefficients"]) == 4

    def test_csv(self, capsys):
        rc = main(
            ["bkl", "--shape", "1|1", "--tuple", "3|3", "--window", "0..3", "--csv"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "tuple,coefficient"
        assert len(lines) == 3

    def test_window_escape_exit_code(self, capsys):
        rc = main(["bkl", "--shape", "1|1", "--tuple", "5|5", "--window", "0..3"])
        assert rc == 3
        assert "window escape" in capsys.readouterr().err

    def test_bad_shape_exit_code(self, capsys):
        rc = main(["bkl", "--shape", "xx", "--tuple", "3|3", "--window", "0..3"])
        assert rc == 2

    def test_too_wide_window_exits_2(self, capsys):
        # the transfer recursion takes one frame per window letter: 0..1100
        # outruns the default stack limit
        rc = main(["bkl", "--shape", "1|1", "--tuple=1100|1100", "--window", "0..1100",
                   "--mode", "dual"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestQsym:
    def test_text(self, capsys):
        rc = main(
            ["qsym", "--shape", "2|1", "--parabolic", "s1", "--tuple", "1,2|3",
             "--window", "0..3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "N coordinates" in out

    def test_basis_change(self, capsys):
        rc = main(
            ["qsym", "--shape", "2|1", "--parabolic", "s1", "--tuple", "1,2|3",
             "--window", "0..3", "--basis", "Ntilde", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["basis"] == "Ntilde"
        assert data["target"] == "1,2|3"

    def test_failed_push_forward_check_exits_2(self, capsys, monkeypatch):
        # adding [2] at the anti-dominant 1,3,2 shifts its N coordinate by one,
        # while the ordinary coefficient at 1,3,2.w0 = 3,1,2 stays put; the
        # CLI is pointed at the push-forward, the second route
        honest = qfock.qsym.tensor_canonical

        def corrupted(f, w):
            exp = honest(f, w)
            coeffs = dict(exp.coefficients)
            g = SignedTuple(Shape(3, 0), (1, 3, 2))
            coeffs[g] = coeffs[g] + LaurentPoly({1: 1, -1: 1})
            return exp._replace(coefficients=MappingProxyType(coeffs))

        monkeypatch.setattr(qfock.qsym, "tensor_canonical", corrupted)
        monkeypatch.setattr(qfock.cli, "qsym_canonical", qfock.qsym.qsym_canonical_push)
        rc = main(["qsym", "--shape", "3|0", "--parabolic", "s1", "--tuple", "2,3,1",
                   "--window", "1..3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "identity verification failed: push-forward coefficient at 1,3,2| "
            "disagrees with the ordinary coefficient at 3,1,2|\n"
        )

    def test_indivisible_push_forward_exits_2(self, capsys, monkeypatch):
        # adding q at 1,2 makes the projected coefficient there
        # q^-1 + 2q, which its index [2] = q + q^-1 does not divide
        honest = qfock.qsym.tensor_canonical

        def corrupted(f, w):
            exp = honest(f, w)
            coeffs = dict(exp.coefficients)
            g = SignedTuple(Shape(2, 0), (1, 2))
            coeffs[g] = coeffs[g] + LaurentPoly({1: 1})
            return exp._replace(coefficients=MappingProxyType(coeffs))

        monkeypatch.setattr(qfock.qsym, "tensor_canonical", corrupted)
        with pytest.raises(CheckFailed, match="is not divisible") as info:
            qfock.qsym.qsym_canonical_push(
                SignedTuple(Shape(2, 0), (1, 2)), Parabolic(Shape(2, 0), {1}), Window(0, 2)
            )
        assert isinstance(info.value.__cause__, NotDivisible)
        monkeypatch.setattr(qfock.cli, "qsym_canonical", qfock.qsym.qsym_canonical_push)
        rc = main(["qsym", "--shape", "2|0", "--parabolic", "s1", "--tuple", "1,2",
                   "--window", "0..2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("identity verification failed: ")

    def test_failed_image_solve_exits_2(self, capsys, monkeypatch):
        # a bar column with an extra q at 1,3,2 is no longer an involution:
        # the difference there stops being bar-antisymmetric
        honest = BarContext.bar_monomial
        top = SignedTuple(Shape(3, 0), (2, 3, 1))

        def broken(self, g):
            col = honest(self, g)
            if g == top:
                extra = FockVector.monomial(SignedTuple(Shape(3, 0), (1, 3, 2)))
                col = col + extra.scaled(LaurentPoly({1: 1}))
            return col

        monkeypatch.setattr(BarContext, "bar_monomial", broken)
        rc = main(["qsym", "--shape", "3|0", "--parabolic", "s1", "--tuple", "2,3,1",
                   "--window", "1..3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "identity verification failed: difference at 1,3,2| below 2,3,1| "
            "is not bar-antisymmetric: 2*q - q^-1\n"
        )

    def test_rejects_non_antidominant(self, capsys):
        rc = main(
            ["qsym", "--shape", "2|1", "--parabolic", "s1", "--tuple", "2,1|1",
             "--window", "0..2"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestChar:
    def test_simple_text(self, capsys):
        rc = main(
            ["char", "--algebra", "gl(1|1)", "--weight", "2|-2",
             "--window", "0..3", "--kind", "simple"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "simple-in-Verma" in out
        assert "L(2|-2)" in out
        assert "-1*M[2|2]" in out

    def test_tilting_json(self, capsys):
        rc = main(
            ["char", "--algebra", "gl(1|1)", "--weight", "2|-2",
             "--window", "0..3", "--kind", "tilting", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tag"] == "tilting-in-Verma"

    def test_verma_json(self, capsys):
        rc = main(
            ["char", "--algebra", "gl(1|1)", "--weight", "2|-2",
             "--window", "0..3", "--kind", "verma", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        want = character_table(SignedTuple.parse("3|3"), Window(0, 3), "verma").to_json()
        assert data == want
        [row] = data["rows"]
        assert row["name"] == "M(2|-2)"
        assert {e["tuple"]: e["mult"] for e in row["entries"]} == {"2|2": 1, "3|3": 1}

    def test_whittaker_csv(self, capsys):
        rc = main(
            ["char", "--algebra", "gl(2|0)", "--weight=-1,1|",
             "--window", "0..3", "--kind", "whittaker", "--csv"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "tag,name,lambda,lambda_tuple,mu,mu_tuple,mult"
        assert any("standard-Whittaker" in line for line in lines[1:])

    def test_whittaker_explicit_parabolic(self, capsys):
        rc = main(
            ["char", "--algebra", "gl(2|0)", "--weight=-1,1|",
             "--window", "0..3", "--kind", "whittaker", "--parabolic", "s1"]
        )
        assert rc == 0
        assert "Delta(-1,1|)" in capsys.readouterr().out

    def test_weight_shape_mismatch(self, capsys):
        rc = main(
            ["char", "--algebra", "gl(2|0)", "--weight", "2|-2",
             "--window", "0..3", "--kind", "simple"]
        )
        assert rc == 2

    @pytest.mark.parametrize("kind", ["simple", "tilting", "verma"])
    def test_parabolic_rejected_outside_whittaker(self, capsys, kind):
        rc = main(
            ["char", "--algebra", "gl(2|0)", "--weight=-1,1|",
             "--window", "0..3", "--kind", kind, "--parabolic", "s1"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--parabolic applies to --kind whittaker only" in captured.err


class TestVerifyCommand:
    def test_pass(self, capsys):
        rc = main(["verify", "--suite", "hecke", "--max-size", "2", "--window", "0..2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "suite hecke: PASS" in out

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_rejects_empty_sweep(self, capsys, size):
        # a sweep over no shapes checks nothing and must not report PASS
        rc = main(["verify", "--suite", "bar", f"--max-size={size}", "--window", "0..2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "--max-size must be at least 1" in captured.err

    def test_bgg_honours_max_size(self, capsys):
        assert main(["verify", "--suite", "bgg", "--window=-1..1"]) == 0
        default = capsys.readouterr().out.splitlines()
        assert main(["verify", "--suite", "bgg", "--max-size", "2", "--window=-1..1"]) == 0
        small = capsys.readouterr().out.splitlines()
        assert len(small) < len(default)
        assert small[-1] == default[-1] == "suite bgg: PASS"
        assert all("2|2" not in line and "1|2" not in line for line in small)

    def test_bgg_rejects_a_size_without_cases(self, capsys):
        rc = main(["verify", "--suite", "bgg", "--max-size", "1", "--window=-1..1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "no bgg case has a shape of size at most 1" in captured.err

    @pytest.mark.parametrize("suite", qfock.cli.VERIFY_SUITE_NAMES)
    def test_size_one_counts_something_or_refuses(self, capsys, suite):
        # at size 1 a suite either checks something or exits 2; it never
        # prints PASS over zero checks
        rc = main(["verify", "--suite", suite, "--max-size", "1"])
        captured = capsys.readouterr()
        if suite in ("bgg", "qsym"):
            assert rc == 2
            assert captured.out == ""
            assert captured.err.startswith(f"error: no {suite} case")
        else:
            assert rc == 0
            *lines, verdict = captured.out.splitlines()
            assert verdict == f"suite {suite}: PASS"
            counts = [int(line.split(": ")[1].split()[0]) for line in lines]
            assert counts and min(counts) > 0, lines

    def test_failed_oracle_exits_2(self, capsys, monkeypatch):
        def inconsistent(*args, **kwargs):
            raise CheckFailed("bar fixed-point system is inconsistent")

        monkeypatch.setattr(qfock.verify, "bar_oracle", inconsistent)
        rc = main(["verify", "--suite", "canonical", "--max-size", "1", "--window", "0..1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "identity verification failed: bar fixed-point system is inconsistent\n"
        )


class TestQuiverCommand:
    def test_matches_golden(self, capsys):
        rc = main(["quiver", "--n", "2"])
        assert rc == 0
        assert capsys.readouterr().out == (GOLDEN / "quiver_gl12.txt").read_text()

    def test_bad_n(self, capsys):
        rc = main(["quiver", "--n", "0"])
        assert rc == 2

    def test_wrong_grading_exits_2(self, capsys, monkeypatch):
        # every arrow in degree 1 breaks (y_1 x_1)^2 = -x_0 y_0, so the
        # presentation refuses to print
        monkeypatch.setattr(qfock.verify.QuiverPresentation, "degree_x", lambda self, i: 1)
        assert main(["quiver", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "identity verification failed: gl(1|2) quiver relations are not degree-homogeneous\n"
        )


# stdout of `main(argv)` stored byte for byte as tests/golden/cli/<name>.<format>
CLI_GOLDENS = {
    "bkl_canonical": "bkl --shape 2|2 --tuple 1,2|1,2 --window=-1..4 --mode canonical",
    "bkl_dual": "bkl --shape 2|1 --tuple 1,2|2 --window=-1..3 --mode dual",
    "qsym_N": "qsym --shape 2|3 --parabolic s3,s4 --tuple 1,2|2,2,1 --window=-1..3 --basis N",
    "qsym_Ntilde": "qsym --shape 2|3 --parabolic s3,s4 --tuple 1,2|2,2,1 --window=-1..3 --basis Ntilde",
    "qsym_Mtilde": "qsym --shape 2|3 --parabolic s3,s4 --tuple 1,2|2,2,1 --window=-1..3 --basis Mtilde",
    "qsym_N_4x4": "qsym --shape 4|4 --parabolic s1,s2,s3 --tuple 1,2,3,4|1,2,3,4 --window 0..4 --basis N",
    "char_simple": "char --algebra gl(1|1) --weight=2|-2 --window 0..3 --kind simple",
    "char_whittaker": "char --algebra gl(2|2) --weight=0,1|0,1 --window=-1..3 --parabolic s1,s3 --kind whittaker",
    "char_tilting": "char --algebra gl(2|2) --weight=-1,1|0,0 --window=-1..3 --kind tilting",
    "char_verma": "char --algebra gl(2|2) --weight=-1,1|0,0 --window=-1..3 --kind verma",
}


@pytest.mark.parametrize("fmt", ["txt", "json", "csv"])
@pytest.mark.parametrize("name", CLI_GOLDENS)
def test_cli_output_matches_golden(capsys, name, fmt):
    flags = [] if fmt == "txt" else [f"--{fmt}"]
    assert main(CLI_GOLDENS[name].split() + flags) == 0
    want = (GOLDEN / "cli" / f"{name}.{fmt}").read_bytes()
    assert capsys.readouterr().out.encode() == want


def test_tensor_wall_output_is_pinned(capsys):
    # the 4|4 orbit-top tensor column: 131,361 bytes, pinned by digest
    # instead of a stored file; 1,476 of its coefficients have more than
    # one term and print in parentheses
    argv = "bkl --shape 4|4 --tuple 4,3,2,1|1,2,3,4 --window 0..4".split()
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 131361
    assert hashlib.sha256(out).hexdigest() == (
        "9f494194a863eef48d00af7ddff887877990e319323b626510d2efc230cf854f"
    )


def test_dual_wall_output_is_pinned(capsys):
    # the 4|4 dual column through the same target: 82,953 bytes, recorded
    # when every dual column was a tensor solve; the recursion must
    # reproduce it byte for byte
    argv = "bkl --shape 4|4 --tuple 4,3,2,1|1,2,3,4 --window 0..4 --mode dual".split()
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 82953
    assert hashlib.sha256(out).hexdigest() == (
        "7055ce8e378afe8b082016841c56e07bab5a00021f34dcaed055f82c75e309e2"
    )


# stdout of the two subcommands that import qfock.verify, which print text
# only, stored byte for byte as tests/golden/<path>
CLI_TEXT_GOLDENS = {
    "quiver_gl11.txt": "quiver --n 1",
    "quiver_gl12.txt": "quiver --n 2",
    **{
        f"cli/verify_{suite}.txt": f"verify --suite {suite} --max-size 2"
        for suite in ("hecke", "bar", "canonical", "qsym", "bgg")
    },
}


@pytest.mark.parametrize("path", CLI_TEXT_GOLDENS)
def test_cli_text_output_matches_golden(capsys, path):
    assert main(CLI_TEXT_GOLDENS[path].split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / path).read_bytes()


class TestVerifySuiteNames:
    def test_names_match_the_suites(self):
        assert qfock.cli.VERIFY_SUITE_NAMES == tuple(sorted(qfock.verify.VERIFY_SUITES))

    def test_help_lists_the_suites(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = capsys.readouterr().out
        assert "--suite {bar,bgg,canonical,hecke,qsym}" in out


class TestArgparseBehavior:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_mode(self):
        with pytest.raises(SystemExit):
            main(["bkl", "--shape", "1|1", "--tuple", "1|1",
                  "--window", "0..2", "--mode", "weird"])
