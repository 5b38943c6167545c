import inspect
import json
import warnings
from pathlib import Path
from types import MappingProxyType

import pytest

import qfock.fock
import qfock.qsym
import qfock.verify
from qfock.canonical import TruncationWarning
from qfock.cli import main
from qfock.hecke import HeckeElement
from qfock.laurent import LaurentPoly
from qfock.qsym import qsym_canonical
from qfock.reports import (
    CharRow,
    CharTable,
    character_table,
    delta_flag_length,
    format_weight,
    simple_character,
    standard_whittaker_column,
    tilting_character,
    verma_column,
    verma_in_simple,
    whittaker_decomposition,
)
from qfock.verify import (
    QuiverPresentation,
    commuting_square_check,
    graded_reciprocity,
    ringel_twist,
    run_verify,
    verify_bar,
    verify_bgg,
    verify_canonical,
    verify_hecke,
    verify_qsym,
    verify_symmetrizer,
    whittaker_routes,
)
from qfock.weightlat import (
    Parabolic,
    Shape,
    SignedTuple,
    Window,
    WindowEscape,
    block,
    is_antidominant,
    longest_element,
    par_elements,
    tuple_to_weight,
    weight_to_tuple,
    window_tuples,
)

GOLDEN = Path(__file__).parent / "golden"


def T(text):
    return SignedTuple.parse(text)


def P(coeffs):
    return LaurentPoly(coeffs)


def anti_block(f, par, w):
    """The anti-dominant members of the block of f, in block order."""
    return [g for g in block(f, w) if is_antidominant(g, par)]


class TestWeightFormat:
    def test_roundtrip(self):
        # the printed weight parses back, through the CLI's path, to the tuple
        f = T("5,0|-3")
        assert format_weight(f) == str(SignedTuple(f.shape, tuple_to_weight(f))) == "3,-1|4"
        assert weight_to_tuple(f.shape, SignedTuple.parse(format_weight(f)).entries) == f

    def test_rendering(self):
        assert format_weight(T("3|3")) == "2|-2"
        assert format_weight(T("2,2|")) == "0,1|"


class TestSimpleCharacter:
    def test_atypical_chain(self):
        row = simple_character(T("3|3"), Window(0, 3))
        assert row.entries == {
            T("3|3"): 1,
            T("2|2"): -1,
            T("1|1"): 1,
            T("0|0"): -1,
        }
        assert row.entries.get(T("2|2"), 0) == -1
        assert row.entries.get(T("6|6"), 0) == 0

    def test_typical_is_verma(self):
        row = simple_character(T("1|3"), Window(0, 3))
        assert row.entries == {T("1|3"): 1}

    def test_diagonal_entry(self):
        w = Window(0, 2)
        f = T("2,1|1")
        row = simple_character(f, w)
        assert row.ftuple == f
        assert row.entries[f] == 1


class TestTiltingCharacter:
    def test_atypical_two_terms(self):
        row = tilting_character(T("3|3"), Window(0, 3))
        assert row.entries == {T("3|3"): 1, T("2|2"): 1}

    def test_typical_single(self):
        row = tilting_character(T("1|3"), Window(0, 3))
        assert row.entries == {T("1|3"): 1}

    def test_nonnegative_sweep(self):
        w = Window(0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for sh in (Shape(1, 1), Shape(2, 1), Shape(1, 2)):
                for f in window_tuples(sh, w):
                    row = tilting_character(f, w)
                    assert all(c >= 0 for c in row.entries.values())


class TestVermaInSimple:
    def test_atypical_bidiagonal(self):
        row = verma_in_simple(T("3|3"), Window(0, 3))
        assert row.entries == {T("3|3"): 1, T("2|2"): 1}

    def test_inverts_simple_rows(self):
        # composing [M] -> [L] -> [M] lands back on the unit vector
        w = Window(0, 2)
        order = block(T("2,1|1"), w)
        for h in order:
            vrow = verma_in_simple(h, w)
            total = {}
            for g, c in vrow.entries.items():
                lrow = simple_character(g, w)
                for k, d in lrow.entries.items():
                    total[k] = total.get(k, 0) + c * d
            total = {k: v for k, v in total.items() if v}
            assert total == {h: 1}, h


class TestCharTable:
    def test_tag_validation(self):
        row = simple_character(T("3|3"), Window(0, 3))
        with pytest.raises(ValueError, match="unknown table tag 'nonsense'"):
            CharTable(Shape(1, 1), "nonsense", Window(0, 3), [row])

    def test_rows_and_tables_are_read_only_tuples(self):
        f, w = T("3|3"), Window(0, 3)
        row = simple_character(f, w)
        assert isinstance(row, CharRow)
        assert row == ("L(2|-2)", f, row.entries)
        tab = character_table(f, w, "simple")
        assert tab == (Shape(1, 1), "simple-in-Verma", w, [row])
        with pytest.raises(AttributeError):
            row.name = "L(0|0)"
        with pytest.raises(AttributeError):
            tab.tag = "tilting-in-Verma"

    def test_kinds(self):
        f = T("3|3")
        w = Window(0, 3)
        assert character_table(f, w, "simple").tag == "simple-in-Verma"
        assert character_table(f, w, "tilting").tag == "tilting-in-Verma"
        assert character_table(f, w, "verma").tag == "Verma-in-simple"
        with pytest.raises(ValueError):
            character_table(f, w, "projective")

    def test_json(self):
        tab = character_table(T("3|3"), Window(0, 3), "tilting")
        data = tab.to_json()
        assert data["tag"] == "tilting-in-Verma"
        assert data["window"] == "0..3"
        row = data["rows"][0]
        assert row["weight"] == [2, -2]
        assert row["tuple"] == "3|3"
        assert {e["tuple"]: e["mult"] for e in row["entries"]} == {"2|2": 1, "3|3": 1}
        assert [e["weight"] for e in row["entries"]] == [[1, -1], [2, -2]]
        json.dumps(data)

    def test_csv(self):
        tab = character_table(T("3|3"), Window(0, 3), "simple")
        lines = tab.to_csv().strip().splitlines()
        assert lines[0] == "tag,name,lambda,lambda_tuple,mu,mu_tuple,mult"
        assert len(lines) == 1 + 4
        assert lines[1].startswith("simple-in-Verma,L(2|-2),2|-2,3|3,")


class TestWhittakerDecomposition:
    def test_regular_even_orbit(self):
        sh = Shape(2, 0)
        par = Parabolic.full(sh)
        f = T("1,2|")
        tab = whittaker_decomposition(f, par, Window(0, 3))
        delta, tilt, simple = tab.rows
        assert delta.entries == {f: 2}
        assert tilt.entries == {f: 2}
        assert simple.entries == {f: 1}
        assert tab.tag == "standard-Whittaker"

    def test_trivial_parabolic_reduces_to_category_o(self):
        sh = Shape(1, 1)
        par = Parabolic.trivial(sh)
        w = Window(0, 3)
        f = T("3|3")
        tab = whittaker_decomposition(f, par, w)
        delta, tilt, simple = tab.rows
        assert delta.entries == {f: 1}
        assert tilt.entries == tilting_character(f, w).entries
        assert simple.entries == simple_character(f, w).entries

    def test_rejects_nondominant(self):
        sh = Shape(1, 2)
        par = Parabolic.full(sh)
        with pytest.raises(ValueError):
            # increasing dual letters
            whittaker_decomposition(T("1|1,2"), par, Window(0, 3))


class TestWhittakerSimpleMult:
    def test_even_regular(self):
        sh = Shape(2, 0)
        par = Parabolic.full(sh)
        f = T("1,2|")
        assert whittaker_routes(par, [f], Window(0, 3)) == [(f, f, 1, 1)]

    def test_different_blocks(self):
        sh = Shape(1, 1)
        par = Parabolic.trivial(sh)
        f, g, w = T("3|3"), T("1|3"), Window(0, 3)
        assert standard_whittaker_column(f, par, w).get(g, 0) == 0
        assert verma_column(f, w).get(g, 0) == 0

    def test_atypical_block_sweep(self):
        sh = Shape(1, 2)
        par = Parabolic.full(sh)
        w = Window(-1, 2)
        anti = anti_block(T("1|1,0"), par, w)
        assert len(anti) >= 3
        rows = whittaker_routes(par, anti, w)
        assert len(rows) == len(anti) ** 2
        for f, g, lhs, rhs in rows:
            assert lhs == rhs, (f, g, lhs, rhs)

    def test_non_antidominant_inputs_use_orbit_reps(self):
        sh = Shape(2, 0)
        par = Parabolic.full(sh)
        w = Window(0, 3)
        # 2,1| is the image of 1,2| under the transposition
        a = standard_whittaker_column(T("1,2|"), par, w)
        assert standard_whittaker_column(T("2,1|"), par, w) == a == {T("1,2|"): 1}


class TestStandardWhittakerColumn:
    def test_typical_is_simple(self):
        sh = Shape(1, 2)
        par = Parabolic.full(sh)
        w = Window(0, 3)
        f = T("3|2,1")  # typical: no letter shared between sectors
        col = standard_whittaker_column(f, par, w)
        assert col == {f: 1}

    def test_atypical_length_two(self):
        sh = Shape(1, 2)
        par = Parabolic.full(sh)
        w = Window(-1, 2)
        # f = (1|1,0) atypical; the series continues one step down the chain
        col = standard_whittaker_column(T("1|1,0"), par, w)
        assert col == {T("1|1,0"): 1, T("0|0,0"): 1}


class TestDeltaFlagLength:
    def test_regular_orbit(self):
        sh = Shape(1, 2)
        par = Parabolic.full(sh)
        assert delta_flag_length(T("1|2,0"), par) == 2
        assert delta_flag_length(T("1|1,1"), par) == 1

    def test_two_sided(self):
        sh = Shape(2, 2)
        par = Parabolic(sh, frozenset({1, 3}))
        assert delta_flag_length(T("1,2|2,1"), par) == 4
        assert delta_flag_length(T("1,1|2,2"), par) == 1


class TestTiltingDeltaMult:
    """Standard multiplicities in the quotient's tiltings: graded_reciprocity rows at q = 1."""

    @staticmethod
    def pair(f_l, f_m, par, w):
        # the coefficient of tilting column f_l at f_m is the canonical side
        # of the graded row at the Ringel twists (f_m', f_l')
        twisted = {g: ringel_twist(g, par, w) for g in (f_l, f_m)}
        rows = graded_reciprocity(par, list(dict.fromkeys(twisted.values())), w)
        [row] = [r for r in rows if r[:2] == (twisted[f_m], twisted[f_l])]
        return tuple(c.at_one() for c in row[2:])

    def test_diagonal(self):
        par = Parabolic.full(Shape(1, 1))
        assert self.pair(T("3|3"), T("3|3"), par, Window(-3, 3)) == (1, 1)

    def test_atypical_adjacent(self):
        par = Parabolic.full(Shape(1, 1))
        assert self.pair(T("3|3"), T("2|2"), par, Window(-3, 3)) == (1, 1)

    def test_window_escape(self):
        par = Parabolic.full(Shape(1, 1))
        with pytest.raises(WindowEscape):
            graded_reciprocity(par, [T("3|3"), T("2|2")], Window(0, 3))

    def test_rejects_nondominant(self):
        par = Parabolic.full(Shape(1, 2))
        with pytest.raises(ValueError, match="not antidominant"):
            graded_reciprocity(par, [T("1|0,2"), T("1|2,0")], Window(-2, 2))

    def test_reads_each_column_once(self, monkeypatch):
        # one image solve and one inverse dual column per member, not one per pair
        par, w = Parabolic(Shape(2, 1), frozenset({1})), Window(-1, 1)
        anti = [g for g in block(T("0,0|0"), w) if is_antidominant(g, par)]
        calls = {"image_solve": 0, "dual_inverse_column": 0}
        for module, name in ((qfock.qsym, "image_solve"), (qfock.verify, "dual_inverse_column")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            rows = graded_reciprocity(par, anti, w)
        assert len(anti) == 3 and len(rows) == 9
        assert all(lhs == rhs for _, _, lhs, rhs in rows)
        assert calls == {"image_solve": 3, "dual_inverse_column": 3}

    def test_table_row(self):
        sh = Shape(1, 1)
        par = Parabolic.full(sh)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            exp = qsym_canonical(T("2|2"), par, Window(-2, 2))
        # the quotient tilting class in the standard basis
        assert {g: c.at_one() for g, c in exp.coefficients.items()} == {T("2|2"): 1, T("1|1"): 1}


class TestGradedBGG:
    def test_singleton(self):
        sh = Shape(1, 1)
        par = Parabolic.trivial(sh)
        w = Window(-3, 3)
        anti = anti_block(T("1|3"), par, w)
        assert anti == [T("1|3")]
        assert graded_reciprocity(par, anti, w) == [(T("1|3"), T("1|3"), 1, 1)]

    def test_atypical_chain_depth_three(self):
        sh = Shape(1, 1)
        par = Parabolic.trivial(sh)
        w = Window(-2, 2)
        anti = anti_block(T("1|1"), par, w)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            rows = graded_reciprocity(par, anti, w)
        assert len(anti) == 5
        assert len(rows) == 25
        assert all(lhs == rhs for _, _, lhs, rhs in rows)
        entry = {(f_lam, f_mu): lhs for f_lam, f_mu, lhs, _ in rows}
        # adjacent pair carries multiplicity q
        assert entry[(T("2|2"), T("1|1"))] == LaurentPoly.q_power(1)
        # and the reversed pair vanishes
        assert entry[(T("1|1"), T("2|2"))] == LaurentPoly.zero()

    def test_parabolic_case(self):
        sh = Shape(1, 2)
        par = Parabolic.full(sh)
        w = Window(-2, 2)
        anti = anti_block(T("1|1,0"), par, w)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            rows = graded_reciprocity(par, anti, w)
        assert len(anti) >= 2
        assert all(lhs == rhs for _, _, lhs, rhs in rows)

    def test_window_escape(self):
        sh = Shape(1, 1)
        par = Parabolic.trivial(sh)
        w = Window(0, 3)
        with pytest.raises(WindowEscape):
            graded_reciprocity(par, anti_block(T("2|2"), par, w), w)


class TestCommutingSquare:
    @pytest.mark.parametrize(
        "shape,gens",
        [
            (Shape(2, 0), {1}),
            (Shape(1, 1), set()),
            (Shape(2, 1), {1}),
            (Shape(1, 2), {2}),
        ],
    )
    def test_square_commutes(self, shape, gens):
        par = Parabolic(shape, frozenset(gens))
        ok, msgs = commuting_square_check(par, Window(0, 2))
        assert ok, msgs

    def test_a_grading_error_breaks_the_square(self, monkeypatch):
        """q^2 on every off-diagonal image dual coefficient is invisible at q = 1 only."""
        real = qfock.verify.qsym_dual_canonical

        def planted(f, par, w):
            exp = real(f, par, w)
            raised = {
                g: c if g == f else c * LaurentPoly.q_power(2)
                for g, c in exp.coefficients.items()
            }
            return exp._replace(coefficients=MappingProxyType(raised))

        par, w = Parabolic(Shape(2, 1), frozenset({1})), Window(-2, 2)
        at_one = lambda exp: {g: c.at_one() for g, c in exp.coefficients.items()}
        anti = [g for g in window_tuples(par.shape, w) if is_antidominant(g, par)]
        assert all(at_one(planted(h, par, w)) == at_one(real(h, par, w)) for h in anti)
        assert any(planted(h, par, w) != real(h, par, w) for h in anti)
        monkeypatch.setattr(qfock.verify, "qsym_dual_canonical", planted)
        ok, msgs = commuting_square_check(par, w)
        assert not ok
        assert len(msgs) == 1 + 36
        assert all(m.startswith("square breaks at monomial") for m in msgs[1:])


class TestQuiver:
    def test_gl12_golden(self):
        want = (GOLDEN / "quiver_gl12.txt").read_text()
        assert QuiverPresentation(2).display() == want

    def test_gl11_golden(self):
        want = (GOLDEN / "quiver_gl11.txt").read_text()
        assert QuiverPresentation(1).display() == want

    def test_degrees(self):
        qp = QuiverPresentation(3)
        assert qp.degree_x(0) == 3
        assert qp.degree_x(1) == 1
        assert qp.degree_x(-1) == 1

    def test_loop_exponents(self):
        qp = QuiverPresentation(2)
        assert qp.loop_relation_exponents(-1) == (1, 2)
        assert qp.loop_relation_exponents(0) == (2, 1)
        assert qp.loop_relation_exponents(5) == (1, 1)
        assert QuiverPresentation(1).loop_relation_exponents(0) == (1, 1)

    def test_degree_homogeneous(self):
        for n in (1, 2, 3, 5):
            assert QuiverPresentation(n).is_degree_homogeneous()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            QuiverPresentation(0)


class TestVerifySuites:
    def test_hecke(self):
        ok, msgs = verify_hecke(3, Window(0, 3))
        assert ok, msgs

    @pytest.mark.parametrize(
        "old,new,flagged",
        [("c.shifted(-1)", "c.shifted(1)", 72), ("c * QINV_MINUS_Q", "c * -QINV_MINUS_Q", 132)],
        ids=["tie", "descent"],
    )
    def test_hecke_relation_rows_fail_a_planted_act_gen(self, monkeypatch, old, new, flagged):
        """act_gen with one coefficient of its rule flipped, q^-1 to q.

        The tie plant scales a tied pair by q; the descent plant adds
        (q - q^-1) M_f at a descent.  The relation rows run on act_gen
        itself, so they catch both, not only the symmetrizer closed form.
        """
        source = inspect.getsource(qfock.fock.act_gen)
        assert source.count(old) == 1
        scope = dict(vars(qfock.fock))
        exec(source.replace(old, new), scope)
        monkeypatch.setattr(qfock.fock, "act_gen", scope["act_gen"])
        # set, not replaced: a verify that reaches act_gen only through
        # fock.act binds no name of its own
        monkeypatch.setattr(qfock.verify, "act_gen", scope["act_gen"], raising=False)
        ok, msgs = verify_hecke(3, Window(0, 3))
        assert not ok
        relation = ("quadratic relation fails", "braid relation fails", "commuting relation fails")
        assert sum(m.startswith(relation) for m in msgs) == flagged

    def test_hecke_symmetrizer_rows_fail_inverted_exponents(self, monkeypatch):
        """sum_sigma q^{l(sigma) - l(w0)} H_sigma is neither bar-fixed nor absorbing."""

        def inverted(par):
            _, l0 = longest_element(par)
            terms = {p: LaurentPoly.q_power(l - l0) for p, l in par_elements(par).items()}
            return HeckeElement(par.shape, terms)

        monkeypatch.setattr(qfock.verify, "symmetrizer", inverted)
        ok, msgs = verify_hecke(3, Window(0, 3))
        assert not ok
        # bar-fixedness and the square fail at each of the 10 parabolics with
        # a generator, absorption at 18 of their elements
        for row, count in [("not bar-fixed", 10), ("square", 10), ("absorption", 18)]:
            assert sum(m.startswith(f"symmetrizer {row}") for m in msgs) == count, row

    def test_symmetrizer(self):
        ok, msgs = verify_symmetrizer(3, Window(1, 3))
        assert ok, msgs

    def test_bar(self):
        ok, msgs = verify_bar(2, Window(0, 2))
        assert ok, msgs

    def test_canonical(self):
        ok, msgs = verify_canonical(2, Window(0, 2))
        assert ok, msgs

    def test_canonical_flags_a_route_mismatch(self, monkeypatch):
        # a tensor solve whose truncation flag differs at one target
        honest = qfock.verify.tensor_canonical
        bad = T("2,1|")

        def flipped(f, w):
            exp = honest(f, w)
            return exp._replace(truncated=not exp.truncated) if f == bad else exp

        monkeypatch.setattr(qfock.verify, "tensor_canonical", flipped)
        ok, msgs = verify_canonical(2, Window(0, 2))
        assert not ok
        assert msgs[2:] == ["canonical route disagrees with the tensor solve at 2,1|"]

    def test_canonical_flags_a_dual_route_mismatch(self, monkeypatch):
        # a tensor dual solve that drops one coefficient at one target
        honest = qfock.verify.tensor_dual_canonical
        bad, low = T("2,1|"), T("1,2|")

        def dropped(f, w):
            exp = honest(f, w)
            if f != bad:
                return exp
            coeffs = {g: c for g, c in exp.coefficients.items() if g != low}
            return exp._replace(coefficients=MappingProxyType(coeffs))

        monkeypatch.setattr(qfock.verify, "tensor_dual_canonical", dropped)
        ok, msgs = verify_canonical(2, Window(0, 2))
        assert not ok
        assert msgs[2:] == ["dual canonical recursion disagrees with the tensor solve at 2,1|"]

    def test_canonical_counts_entries_over_the_height_bound(self, monkeypatch):
        # q^2 times every off-diagonal canonical coefficient lifts each
        # canonical entry at the bound over it
        honest = qfock.verify.canonical

        def shifted(f, w):
            exp = honest(f, w)
            coeffs = {g: c if g == f else c.shifted(2) for g, c in exp.coefficients.items()}
            return exp._replace(coefficients=MappingProxyType(coeffs))

        def over_bound(msgs):
            assert msgs[1].startswith("height bound: ") and msgs[1].endswith(" over it")
            return int(msgs[1].split(", ")[-1].split()[0])

        ok, msgs = verify_canonical(2, Window(0, 2))
        assert ok and over_bound(msgs) == 0, msgs
        monkeypatch.setattr(qfock.verify, "canonical", shifted)
        ok, msgs = verify_canonical(2, Window(0, 2))
        over = over_bound(msgs)
        assert not ok and over > 0
        rows = [m for m in msgs if m.endswith("exceeds the height bound")]
        assert len(rows) == over
        assert all(m.startswith("canonical coefficient at ") for m in rows)

    def test_qsym(self):
        ok, msgs = verify_qsym(3, Window(0, 2))
        assert ok, msgs

    def test_qsym_projection_rows_fail_a_doubled_symmetrizer(self, monkeypatch):
        """Each projection row compares M_f S with the orbit closed form.

        Against q^-len(tau) M_f0 S, itself computed with the symmetrizer, a
        doubled S would cancel and every row would pass.
        """
        real = qfock.verify.symmetrizer
        doubled = lambda par: real(par).scaled(2)
        monkeypatch.setattr(qfock.verify, "symmetrizer", doubled)
        monkeypatch.setattr(qfock.qsym, "symmetrizer", doubled)
        ok, msgs = verify_qsym(2, Window(0, 4))
        assert not ok
        # every one of the 50 projection rows of the max-size-2 golden
        assert sum(m.startswith("projection formula fails at") for m in msgs) == 50

    def test_bgg(self):
        ok, msgs = verify_bgg(4, Window(-1, 1))
        assert ok, msgs

    @pytest.mark.parametrize(
        "route,at,line",
        [
            ("dual_inverse_column", 1, "graded reciprocity fails at 1|1, 0|0: q + 1 != q"),
            ("standard_whittaker_column", 0, "Whittaker two-route fails at 1|1, 0|0: 2 != 1"),
        ],
        ids=["graded", "whittaker"],
    )
    def test_bgg_fails_loudly_on_a_wrong_route(self, monkeypatch, capsys, route, at, line):
        # one route gains 1 in column 1|1 at 0|0; the other route is left alone
        honest = getattr(qfock.verify, route)

        def wrong(*args):
            col = dict(honest(*args))
            if args[at] == T("1|1"):
                col[T("0|0")] = col.get(T("0|0"), 0) + 1
            return col

        monkeypatch.setattr(qfock.verify, route, wrong)
        ok, msgs = verify_bgg(4, Window(-1, 1))
        assert not ok
        assert line in msgs
        assert main(["verify", "--suite", "bgg"]) == 2
        out = capsys.readouterr().out
        assert line in out.splitlines()
        assert out.endswith("suite bgg: FAIL\n")

    def test_dispatch(self):
        ok, msgs = run_verify("hecke", 2, Window(0, 2))
        assert ok
        with pytest.raises(ValueError):
            run_verify("everything", 2, Window(0, 2))
        with pytest.raises(ValueError):
            run_verify("hecke", 0, Window(0, 2))
