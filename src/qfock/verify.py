"""Identity sweeps, graded reciprocity and the gl(1|n) quiver presentation.

The verify_* sweeps re-run the defining identities of the other modules
over small exhaustive ranges; they are shared between the test suite and
the `verify` command.  Each takes (max_size, w), the command's --max-size
and --window, and derives the windows it runs in from w; its other bounds
(block caps, the oracle's degree, group orders) are fixed.  Graded
reciprocity (which carries Ringel duality, exactly in q), the Whittaker
two-route comparison and the graded decategorification square check the
report layer against a second route, and the quiver presentation backs
the `quiver` command.

The command line imports this module only for `verify` and `quiver`, so
that `bkl`, `qsym` and `char` never load it.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass

from .barinv import bar, bar_oracle, pure_bar
from .canonical import (
    TruncationWarning,
    canonical,
    dual_canonical,
    dual_inverse_column,
    inverse_column,
    inverse_relation_check,
    tensor_canonical,
    tensor_dual_canonical,
)
from .fock import FockVector, act, apply_chevalley
from .hecke import HeckeElement, symmetrizer
from .laurent import QINV_MINUS_Q, LaurentPoly, q_fact
from .qsym import (
    qsym_canonical,
    qsym_canonical_intrinsic,
    qsym_canonical_push,
    qsym_dual_canonical,
    qsym_dual_canonical_push,
)
from .reports import delta_flag_length, standard_whittaker_column, verma_column
from .weightlat import (
    CheckFailed,
    Parabolic,
    Shape,
    SignedTuple,
    Window,
    WindowEscape,
    antidominant_rep,
    block,
    blocks,
    bruhat_leq,
    coset_reps,
    group_qfactorial,
    is_antidominant,
    is_typical,
    longest_element,
    par_elements,
    stabilizer,
    weight,
    window_tuples,
)


# ---------------------------------------------------------------------------
# two-route checks on the anti-dominant members of one block


def ringel_twist(f: SignedTuple, par: Parabolic, w: Window) -> SignedTuple:
    """f.w0 negated, w0 the longest element of par; WindowEscape outside w."""
    t = f.act(longest_element(par)[0]).negate()
    if not t.in_window(w):
        raise WindowEscape(f"negated tuple {t} of {f} leaves the window {w}")
    return t


def graded_reciprocity(par: Parabolic, anti: list[SignedTuple], w: Window) -> list[tuple]:
    """Graded BGG reciprocity on anti-dominant members of one block, at least one.

    Returns (f_lam, f_mu, lhs, rhs) for every ordered pair from anti.  The
    left value, a graded projective-to-standard multiplicity of the
    quotient, inverts the graded simple-to-Verma matrix of the whole
    ordinary block; the right value is the symmetrized canonical
    coefficient at the negated weights twisted by the longest parabolic
    element.  Reciprocity is lhs == rhs entrywise.  With the twist undone
    on both tuples, the right value is the quotient's tilting-to-standard
    multiplicity, so at q = 1 this is Ringel duality's comparison with the
    ordinary composition multiplicities.  Raises WindowEscape when a twist
    leaves w.
    """
    order = block(anti[0], w)
    twisted = {g: ringel_twist(g, par, w) for g in anti}
    dinv = {f_lam: dual_inverse_column(order, f_lam, w) for f_lam in anti}
    rows = []
    for f_mu in anti:
        texp = qsym_canonical(twisted[f_mu], par, w)
        for f_lam in anti:
            lhs = dinv[f_lam].get(f_mu, LaurentPoly.zero())
            rows.append((f_lam, f_mu, lhs, texp.coeff(twisted[f_lam])))
    return rows


def whittaker_routes(par: Parabolic, anti: list[SignedTuple], w: Window) -> list[tuple]:
    """Standard-to-simple multiplicities of the quotient on anti-dominant members of one block.

    Returns (f_l, f_m, lhs, rhs) for every ordered pair from anti: lhs is
    computed inside the quotient (standard_whittaker_column), rhs is the
    ordinary composition multiplicity [M_{f_l} : L_{f_m}] (verma_column).
    The two must agree.
    """
    rows = []
    for f_l in anti:
        quotient = standard_whittaker_column(f_l, par, w)
        ordinary = verma_column(f_l, w)
        rows.extend((f_l, f_m, quotient.get(f_m, 0), ordinary.get(f_m, 0)) for f_m in anti)
    return rows


# ---------------------------------------------------------------------------
# the decategorification square


def commuting_square_check(par: Parabolic, w: Window) -> tuple[bool, list[str]]:
    """Projecting then decategorifying equals decategorifying then projecting, graded.

    For every monomial M_f in every block of the parabolic's shape in the
    window: expand it in the dual canonical basis, M_f = sum_h x_{h,f} L_h
    (a column of the inverse dual canonical matrix), push the anti-dominant
    L_h into the quotient (qsym_dual_canonical; the others project to
    zero), and compare with the direct projection q^{-len(tau)} Ntilde_{f tau},
    f tau the anti-dominant representative of f.  Exact in q.
    """
    fails: list[str] = []
    n_blocks = 0
    dual_column = lambda h: dual_canonical(h, w).coefficients
    for order in blocks(par.shape, w):
        n_blocks += 1
        anti = [g for g in order if is_antidominant(g, par)]
        bcols = {h: qsym_dual_canonical(h, par, w) for h in anti}
        for fo in order:
            f0, _, ltau = antidominant_rep(fo, par)
            x = inverse_column(order, dual_column, fo)
            for g0 in anti:
                got = sum(
                    (xh * bcols[h].coeff(g0) for h, xh in x.items() if h in bcols),
                    LaurentPoly.zero(),
                )
                want = LaurentPoly.q_power(-ltau) if g0 == f0 else LaurentPoly.zero()
                if got != want:
                    fails.append(
                        f"square breaks at monomial {fo}, coordinate {g0}: "
                        f"{got} != {want}"
                    )
    msgs = [f"decategorification square: {n_blocks} blocks of {par.shape} in {w}, parabolic {par}"]
    msgs.extend(fails)
    return not fails, msgs


# ---------------------------------------------------------------------------
# quiver presentation for gl(1|n), nonsingular central character


def _loop(first: str, second: str, i: int, power: int) -> str:
    """The path first_i second_i to a power, as printed: y_0 x_0 or (x_{-1} y_{-1})^2."""
    sub = f"_{{{i}}}" if i < 0 else f"_{i}"
    path = f"{first}{sub} {second}{sub}"
    return path if power == 1 else f"({path})^{power}"


@dataclass(frozen=True)
class QuiverPresentation:
    """Arrows and relations of the endomorphism algebra of a gl(1|n) block.

    Vertices are the integers; x_i goes i -> i+1 and y_i goes i+1 -> i,
    and both have degree degree_x(i): n for the atypical pair x_0, y_0
    and 1 for all other arrows.  The loop relations are printed from
    loop_relation_exponents, and display() refuses (CheckFailed) unless
    they are degree-homogeneous for that grading.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    def degree_x(self, i: int) -> int:
        """deg(x_i), which is also deg(y_i)."""
        return 1 + (self.n - 1) * (1 if i == 0 else 0)

    def loop_relation_exponents(self, i: int) -> tuple[int, int]:
        """Exponents (left, right) in (y_{i+1}x_{i+1})^a = -(x_i y_i)^b."""
        a = 1 + (self.n - 1) * (1 if i == 0 else 0)
        b = 1 + (self.n - 1) * (1 if i == -1 else 0)
        return a, b

    def relations(self) -> list[str]:
        rel = ["x_{i+1} x_i = 0", "y_i y_{i+1} = 0"]
        if self.n == 1:
            rel.append("y_{i+1} x_{i+1} = -x_i y_i   for all i")
            return rel
        rel.append("y_{i+1} x_{i+1} = -x_i y_i   for i not in {-1, 0}")
        for i in (-1, 0):
            a, b = self.loop_relation_exponents(i)
            rel.append(f"{_loop('y', 'x', i + 1, a)} = -{_loop('x', 'y', i, b)}")
        return rel

    def grading_lines(self) -> list[str]:
        first = "deg(x_i) = deg(y_i) = 1 + (n-1)*delta(i,0)"
        if self.n == 1:
            second = "all arrows have degree 1"
        else:
            second = (
                f"deg(x_0) = deg(y_0) = {self.degree_x(0)}, "
                f"all other arrows have degree {self.degree_x(1)}"
            )
        return [first, second]

    def is_degree_homogeneous(self) -> bool:
        """Positive degrees, and both sides of each loop relation i in -4..4 of one degree."""
        for i in range(-4, 5):
            a, b = self.loop_relation_exponents(i)
            if self.degree_x(i) <= 0 or a * self.degree_x(i + 1) != b * self.degree_x(i):
                return False
        return True

    def display(self) -> str:
        if not self.is_degree_homogeneous():
            raise CheckFailed(f"gl(1|{self.n}) quiver relations are not degree-homogeneous")
        grading = self.grading_lines()
        lines = [
            f"quiver presentation for gl(1|n) with n = {self.n} (nonsingular central character)",
            "",
            "vertices: i for all integers i",
            "arrows:   x_i : i -> i+1,  y_i : i+1 -> i",
            "",
            f"grading:  {grading[0]}",
            f"          {grading[1]}",
            "",
            "relations:",
        ]
        lines.extend(f"  {r}" for r in self.relations())
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification sweeps (shared by tests and the command line)


def _shapes_up_to(size: int) -> list[Shape]:
    out = []
    for k in range(1, size + 1):
        for m in range(k + 1):
            out.append(Shape(m, k - m))
    return out


def _shrink(w: Window, width: int) -> Window:
    return Window(w.lo, min(w.hi, w.lo + width - 1))


def _symmetric(w: Window) -> Window:
    """A window of comparable width centered at zero, for negation-closed checks."""
    if w.lo < 0 < w.hi:
        r = min(-w.lo, w.hi)
    else:
        r = max(1, w.width // 2)
    return Window(-r, r)


def _parabolics(shape: Shape) -> list[Parabolic]:
    gens = [i for i in range(1, shape.size) if i != shape.m]
    return [
        Parabolic(shape, frozenset(sub))
        for r in range(len(gens) + 1)
        for sub in itertools.combinations(gens, r)
    ]


def verify_hecke(max_size: int, w: Window) -> tuple[bool, list[str]]:
    """Quadratic, braid and symmetrizer identities on all small shapes (fixed seed 0).

    The hecke suite is these relations followed by verify_symmetrizer in w.
    """
    rng = random.Random(0)
    fails: list[str] = []
    checked = 0
    for shape in _shapes_up_to(max_size):
        gens = [i for i in range(1, shape.size) if i != shape.m]
        one = HeckeElement.unit(shape)
        for i in gens:
            h = HeckeElement.generator(shape, i)
            if h * h != h.scaled(QINV_MINUS_Q) + one:
                fails.append(f"quadratic relation fails at {shape}, i={i}")
            checked += 1
        for i in gens:
            for j in gens:
                if i >= j:
                    continue
                hi = HeckeElement.generator(shape, i)
                hj = HeckeElement.generator(shape, j)
                if j == i + 1:
                    ok = hi * hj * hi == hj * hi * hj
                else:
                    ok = hi * hj == hj * hi
                if not ok:
                    fails.append(f"braid relation fails at {shape}, i={i}, j={j}")
                checked += 1
        for par in _parabolics(shape):
            s = symmetrizer(par)
            if s.bar() != s:
                fails.append(f"symmetrizer not bar-fixed for {shape}, {par}")
            checked += 1
            for sigma, length in par_elements(par).items():
                hs = HeckeElement.basis(shape, sigma)
                want = s.scaled(LaurentPoly.q_power(-length))
                if s * hs != want or hs * s != want:
                    fails.append(
                        f"symmetrizer absorption fails for {shape}, {par}, sigma={sigma}"
                    )
                checked += 1
        if gens:
            for _ in range(5):
                word = [rng.choice(gens) for _ in range(4)]
                a = one
                for i in word:
                    a = a * HeckeElement.generator(shape, i)
                b = one
                for i in reversed(word):
                    b = HeckeElement.generator(shape, i) * b
                if a != b:
                    fails.append(f"associativity fails at {shape}, word={word}")
                checked += 1
    msgs = [f"hecke relations: {checked} identities on shapes up to size {max_size}"]
    msgs.extend(fails)
    closed_ok, closed = verify_symmetrizer(max_size, w)
    return not fails and closed_ok, msgs + closed


def _symmetrized_monomial(f: SignedTuple, par: Parabolic) -> FockVector:
    """M_f S by the orbit closed form, without the Hecke action.

    With f = f0.tau (f0 anti-dominant, tau its minimal sorter), M_f S is
    q^-len(tau) [W_f0] sum_x q^(top - len(x)) M_{f0 x}, x over the minimal
    coset representatives of the stabilizer W_f0 in W, top the longest.
    """
    f0, _, ltau = antidominant_rep(f, par)
    sub = stabilizer(f0, par)
    reps = coset_reps(sub, par)
    stab_q, top = group_qfactorial(sub), reps[-1][1]
    terms = {f0.act(x): stab_q * LaurentPoly.q_power(top - lx - ltau) for x, lx in reps}
    return FockVector(f.shape, terms)


def verify_symmetrizer(max_size: int, w: Window) -> tuple[bool, list[str]]:
    """Closed form of a monomial times the full symmetrizer, plus [k]! sums up to [5]!.

    The closed form is _symmetrized_monomial; the sweep runs in the first
    four letters of w.
    """
    w = _shrink(w, 4)
    fails: list[str] = []
    checked = 0
    for shape in _shapes_up_to(max_size):
        par = Parabolic.full(shape)
        for f in window_tuples(shape, w):
            if act(FockVector.monomial(f), symmetrizer(par)) != _symmetrized_monomial(f, par):
                fails.append(f"symmetrizer closed form fails at {f} in {w}")
            checked += 1
    for k in range(1, 6):
        shape = Shape(k, 0)
        par = Parabolic.full(shape)
        w0len = longest_element(par)[1]
        total = LaurentPoly.zero()
        for _, length in par_elements(par).items():
            total = total + LaurentPoly.q_power(w0len - 2 * length)
        if total != q_fact(k):
            fails.append(f"Poincare sum does not match [{k}]!")
        checked += 1
    msgs = [f"symmetrizer closed form: {checked} expansions, window {w}"]
    msgs.extend(fails)
    return not fails, msgs


def verify_bar(max_size: int, w: Window) -> tuple[bool, list[str]]:
    """Involutivity, triangularity and equivariance of the bar map."""
    fails: list[str] = []
    checked = 0
    small = Window(w.lo + 1, w.hi - 1) if w.width >= 3 else w
    for shape in _shapes_up_to(max_size):
        gens = [i for i in range(1, shape.size) if i != shape.m]
        pure = shape.m == 0 or shape.n == 0
        for f in window_tuples(shape, w):
            v = FockVector.monomial(f)
            bv = bar(v, w)
            if bar(bv, w) != v:
                fails.append(f"bar not involutive at {f}")
            for g, c in (bv - v).terms.items():
                if g == f or not bruhat_leq(g, f):
                    fails.append(f"bar not triangular at {f}: term {g}")
                if weight(g) != weight(f):
                    fails.append(f"bar changed the weight at {f}: term {g}")
            if pure and pure_bar(v) != bv:
                fails.append(f"pure-sector bar disagrees at {f}")
            checked += 1
        for f in window_tuples(shape, small):
            v = FockVector.monomial(f)
            bv = bar(v, w)
            inner = bar(v, small)
            for g in set(inner.support()) | set(bv.support()):
                if g.in_window(small) and inner.coeff(g) != bv.coeff(g):
                    fails.append(f"window instability at {f}, term {g}")
            checked += 1
        pool = list(window_tuples(shape, small))
        for f in pool[:: max(1, len(pool) // 40)]:
            v = FockVector.monomial(f)
            bv = bar(v, w)
            for i in gens:
                h = HeckeElement.generator(shape, i)
                if bar(act(v, h), w) != act(bv, h.bar()):
                    fails.append(f"bar-Hecke compatibility fails at {f}, i={i}")
                checked += 1
            for a in range(small.lo, small.hi):
                for kind in ("E", "F"):
                    if bar(apply_chevalley(v, kind, a), w) != apply_chevalley(bv, kind, a):
                        fails.append(f"bar-{kind}_{a} compatibility fails at {f}")
                    checked += 1
                if bar(apply_chevalley(v, "K", a), w) != apply_chevalley(bv, "Kinv", a):
                    fails.append(f"bar-K_{a} compatibility fails at {f}")
                checked += 1
    msgs = [f"bar involution: {checked} checks on shapes up to size {max_size}, window {w}"]
    msgs.extend(fails)
    return not fails, msgs


def _blocks_in(shape: Shape, w: Window, cap: int):
    return (order for order in blocks(shape, w) if len(order) <= cap)


def _inverse_relations(max_size: int, w: Window) -> tuple[int, list[str]]:
    """inverse_relation_check on every block of at most 12: (blocks checked, failures)."""
    checked, fails = 0, []
    for shape in _shapes_up_to(max_size):
        for order in _blocks_in(shape, w, 12):
            try:
                inverse_relation_check(order, w)
            except CheckFailed as exc:
                fails.append(str(exc))
            checked += 1
    return checked, fails


def verify_canonical(max_size: int, w: Window) -> tuple[bool, list[str]]:
    """Defining properties of both canonical bases, against the bar oracle.

    Also checks positivity: every canonical coefficient t_{gf} lies in N[q],
    and, at every target visited, that canonical's route (the image one at
    an orbit top) gives the tensor solve's coefficients and truncation flag,
    and that dual_canonical's Kazhdan-Lusztig recursion gives the tensor
    solve's dual column.
    The oracle sweep runs on every block of at most 12 members in the first
    four letters of w, to degree 8; the inverse relations run in the
    symmetric window of w.
    """
    sym_w = _symmetric(w)
    w = _shrink(w, 4)
    fails: list[str] = []
    checked = 0

    def same_route(f: SignedTuple, w: Window) -> None:
        if canonical(f, w) != tensor_canonical(f, w):
            fails.append(f"canonical route disagrees with the tensor solve at {f}")
        if dual_canonical(f, w) != tensor_dual_canonical(f, w):
            fails.append(f"dual canonical recursion disagrees with the tensor solve at {f}")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for shape in _shapes_up_to(max_size):
            for order in _blocks_in(shape, w, 12):
                for f in order:
                    texp = canonical(f, w)
                    same_route(f, w)
                    tv = texp.vector()
                    if bar(tv, w) != tv:
                        fails.append(f"canonical element not bar-fixed at {f}")
                    if texp.coeff(f) != LaurentPoly.one():
                        fails.append(f"canonical diagonal not 1 at {f}")
                    for g, c in texp.coefficients.items():
                        if g != f and c.min_exp() < 1:
                            fails.append(f"canonical correction not in qZ[q] at {f}: {g}")
                        if any(a < 0 for a in c.c.values()):
                            fails.append(f"canonical coefficient not in N[q] at {f}: {g}")
                    if bar_oracle(f, w, 8, "canonical") != tv:
                        fails.append(f"canonical disagrees with the oracle at {f}")
                    lexp = dual_canonical(f, w)
                    lv = lexp.vector()
                    if bar(lv, w) != lv:
                        fails.append(f"dual canonical element not bar-fixed at {f}")
                    if lexp.coeff(f) != LaurentPoly.one():
                        fails.append(f"dual canonical diagonal not 1 at {f}")
                    for g, c in lexp.coefficients.items():
                        if g != f and c.max_exp() > -1:
                            fails.append(f"dual correction not in (1/q)Z[1/q] at {f}: {g}")
                    if bar_oracle(f, w, 8, "dual") != lv:
                        fails.append(f"dual canonical disagrees with the oracle at {f}")
                    checked += 1
        shape = Shape(1, 1)
        for a in range(w.lo + 1, w.hi + 1):
            f = SignedTuple(shape, (a, a))
            down = SignedTuple(shape, (a - 1, a - 1))
            texp = canonical(f, w)
            same_route(f, w)
            want = {f: LaurentPoly.one(), down: LaurentPoly.q_power(1)}
            if dict(texp.coefficients) != want:
                fails.append(f"atypical tilting expansion wrong at {f}")
            lexp = dual_canonical(f, w)
            for k in range(0, a - w.lo + 1):
                g = SignedTuple(shape, (a - k, a - k))
                if lexp.coeff(g) != LaurentPoly.q_power(-k, (-1) ** k):
                    fails.append(f"atypical dual chain wrong at {f}, step {k}")
            checked += 1
        n, inverse_fails = _inverse_relations(max_size, sym_w)
        checked += n
        fails.extend(inverse_fails)
        # the inverse relations read the negated blocks, which are blocks too
        for shape in _shapes_up_to(max_size):
            for order in _blocks_in(shape, sym_w, 12):
                for f in order:
                    same_route(f, sym_w)
    msgs = [f"canonical bases: {checked} elements checked, windows {w} and {sym_w}"]
    msgs.extend(fails)
    return not fails, msgs


def verify_qsym(max_size: int, w: Window) -> tuple[bool, list[str]]:
    """Push-forward identities of the symmetrized space.

    Every parabolic with a generator and of order at most 4, on shapes of
    size at most max_size, is swept in w.  The projection formula (M_f S
    against _symmetrized_monomial) is checked at every tuple; the
    canonical-basis identities (which run triangular solves) at every
    block: the image solve against the push-forward for both bases at every
    anti-dominant member, the vanishing projection at every other member,
    and the intrinsic solve at the top of each block.  Raises ValueError
    when no parabolic qualifies, so that a sweep over nothing never passes.
    """
    cases = [
        par
        for shape in _shapes_up_to(max_size)
        for par in _parabolics(shape)
        if par.generators and len(par_elements(par)) <= 4
    ]
    if not cases:
        raise ValueError(f"no qsym case: no shape of size at most {max_size} has a generator")
    fails: list[str] = []
    checked = 0
    for par in cases:
        for f in window_tuples(par.shape, w):
            if act(FockVector.monomial(f), symmetrizer(par)) != _symmetrized_monomial(f, par):
                fails.append(f"projection formula fails at {f}, {par}")
            checked += 1
    routes = (
        ("canonical", qsym_canonical, qsym_canonical_push),
        ("dual", qsym_dual_canonical, qsym_dual_canonical_push),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for par in cases:
            for order in blocks(par.shape, w):
                anti = [g for g in order if is_antidominant(g, par)]
                for f in order:
                    if is_antidominant(f, par):
                        continue
                    try:
                        qsym_dual_canonical_push(f, par, w)
                    except CheckFailed:
                        fails.append(f"dual image expansion fails at {f}, {par}")
                    checked += 1
                for f in anti:
                    for mode, image, push in routes:
                        try:
                            got = image(f, par, w).coefficients
                            if got != push(f, par, w).coefficients:
                                fails.append(
                                    f"image and push-forward {mode} disagree at {f}, {par}"
                                )
                        except CheckFailed:
                            fails.append(f"{mode} image routes fail at {f}, {par}")
                        checked += 1
                if anti:
                    # under any linear extension the last anti-dominant
                    # member is Bruhat-maximal among them; when several
                    # are maximal, the block's tie-break (height, then
                    # entries) decides which one is checked
                    top = anti[-1]
                    try:
                        nexp, _ = qsym_canonical_intrinsic(top, par, w)
                        image = qsym_canonical(top, par, w)
                        if nexp.coefficients != image.coefficients:
                            fails.append(f"intrinsic and image solves disagree at {top}, {par}")
                    except (CheckFailed, ArithmeticError):
                        fails.append(f"intrinsic solve fails at {top}, {par}")
                    checked += 1
    msgs = [f"symmetrized space: {checked} checks, window {w}"]
    msgs.extend(fails)
    return not fails, msgs


def verify_bgg(max_size: int, w: Window) -> tuple[bool, list[str]]:
    """The graded square, the two-route checks and block facts on shapes of size <= max_size.

    Everything but the block facts runs in the symmetric window of w.  On
    every block of at most 14 members of each duality case, graded
    reciprocity (the quotient's tilting multiplicities through Ringel
    duality, exactly in q) and the Whittaker standard-to-simple
    multiplicities are each compared between their two routes and counted
    in pairs.
    """
    w = _symmetric(w)

    def sized(cases: list[Parabolic]) -> list[Parabolic]:
        return [par for par in cases if par.shape.size <= max_size]

    square_cases = sized([
        Parabolic.full(Shape(2, 0)),
        Parabolic.trivial(Shape(1, 1)),
        Parabolic(Shape(2, 1), frozenset({1})),
        Parabolic(Shape(1, 2), frozenset({2})),
        Parabolic(Shape(2, 2), frozenset({1})),
        Parabolic(Shape(2, 2), frozenset({3})),
        Parabolic(Shape(2, 2), frozenset({1, 3})),
    ])
    duality_cases = sized([
        Parabolic.full(Shape(1, 1)),
        Parabolic(Shape(2, 1), frozenset({1})),
        Parabolic(Shape(1, 2), frozenset({2})),
        Parabolic(Shape(3, 3), frozenset({1, 2})),
    ])
    fact_cases = sized([Parabolic.full(Shape(1, 2))])
    if not (square_cases or duality_cases or fact_cases):
        raise ValueError(f"no bgg case has a shape of size at most {max_size}")
    fails: list[str] = []
    msgs: list[str] = []
    for par in square_cases:
        ok, sub = commuting_square_check(par, w)
        msgs.append(sub[0])
        if not ok:
            fails.extend(sub[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for par in duality_cases:
            rows = {"graded reciprocity": [], "Whittaker two-route": []}
            for order in _blocks_in(par.shape, w, 14):
                inside = []
                for g in order:
                    if is_antidominant(g, par):
                        try:
                            ringel_twist(g, par, w)
                        except WindowEscape:
                            continue
                        inside.append(g)
                if not inside:
                    continue
                rows["graded reciprocity"] += graded_reciprocity(par, inside, w)
                rows["Whittaker two-route"] += whittaker_routes(par, inside, w)
            for check, found in rows.items():
                msgs.append(f"{check}: {len(found)} pairs on {par.shape}, parabolic {par}")
                fails.extend(
                    f"{check} fails at {a}, {b}: {lhs} != {rhs}"
                    for a, b, lhs, rhs in found
                    if lhs != rhs
                )
        for par in fact_cases:
            shape = par.shape
            # the composition series of an atypical standard object reaches one
            # step below the weight, so columns are computed one letter deeper
            deep = Window(-1, 2)
            n_typ = n_atyp = 0
            for f in window_tuples(shape, Window(0, 2)):
                if not is_antidominant(f, par):
                    continue
                col = standard_whittaker_column(f, par, deep)
                if is_typical(f):
                    if col != {f: 1}:
                        fails.append(f"typical standard object not simple at {f}")
                    n_typ += 1
                else:
                    others = [g for g in col if g != f]
                    ok = (
                        len(col) == 2
                        and all(c == 1 for c in col.values())
                        and all(bruhat_leq(g, f) for g in others)
                    )
                    if not ok:
                        fails.append(f"atypical standard object not of length 2 at {f}")
                    n_atyp += 1
                length = delta_flag_length(f, par)
                orbit = {f.act(sigma) for sigma in par_elements(par)}
                if length != len(orbit):
                    fails.append(f"flag length wrong at {f}: {length} != {len(orbit)}")
            msgs.append(
                f"block facts on {shape}: {n_typ} typical and {n_atyp} atypical weights"
            )
    msgs.extend(fails)
    return not fails, msgs


VERIFY_SUITES = {
    "hecke": verify_hecke,
    "bar": verify_bar,
    "canonical": verify_canonical,
    "qsym": verify_qsym,
    "bgg": verify_bgg,
}


def run_verify(suite: str, max_size: int, w: Window) -> tuple[bool, list[str]]:
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown verify suite {suite!r}")
    if max_size < 1:
        raise ValueError(f"--max-size must be at least 1, got {max_size}")
    return VERIFY_SUITES[suite](max_size, w)
