"""Hodge diamonds, dimension reports, and the consistency verifier.

Every pure table exists twice: a closed route, the slice steps of the weight
character of V, and a basis route (linear algebra over the graded chains).
The two n = 2 mixed tables have the closed route only: the character diamond
is their pure part, and the string bottoms of Q(t) fill their diagonal.  The
verifier runs both routes and reports disagreements as data instead of raising.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .chains import (DegenerateReduction, build_chain, cohomology_bases, eigen_relation_failure,
                     jordan_block_sizes, kernel_slice_dims, shift_coker_dims, tilde_chain)
from .counting import (_slice_steps, block_multiplicity, block_multiplicity_n2_closed,
                       bottom_multiplicity, lattice_step, lattice_step_n2_closed,
                       solution_dim_at_infinity, solution_dim_at_zero, weight_character)
from .cyclo import vanishing_tuple_count
from .families import BadFamilyParams, Family, admissible, has_tower, require_admissible
from .weyl import v21_chain


class NonIntegralDimension(ArithmeticError):
    """A dimension formula produced a non-integer."""


def _level(x) -> "int | Fraction":
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


@dataclass(frozen=True)
class HodgeDiamond:
    family: Family
    n: int
    k: int
    weight: int
    kind: str                  # "pure" or "mixed"
    levels: dict               # (p, q) -> multiplicity, zeros included on support

    def nonzero(self) -> dict:
        return {pq: h for pq, h in self.levels.items() if h}

    def total(self) -> int:
        return sum(self.levels.values())

    def anti_diagonal(self) -> tuple[int, ...]:
        """h^{p, weight-p} for p = 0..weight (integer-level diamonds)."""
        return tuple(self.levels.get((p, self.weight - p), 0)
                     for p in range(self.weight + 1))

    def sorted_entries(self):
        return sorted(self.levels.items(), key=lambda item: (item[0][0], item[0][1]))


@dataclass(frozen=True)
class DimReport:
    family: Family
    n: int
    k: int
    dim_h1: int
    dim_mid: int
    soln_zero: int
    soln_infty: int
    irregularity: int


def dims_kl(n: int, k: int, family: Family = Family.KL_Z) -> DimReport:
    """Cohomology dimensions for the Kloosterman families."""
    if family not in (Family.KL_Z, Family.KL_TILDE_T):
        raise ValueError("dims_kl covers the Kloosterman families only")
    m = n + 1
    ambient = comb(n + k, n)
    dk = vanishing_tuple_count(m, k)
    if family is Family.KL_Z:
        num = ambient - dk
        if num % m:
            raise NonIntegralDimension(f"({ambient} - {dk}) not divisible by {m}")
        h1 = num // m
    else:
        h1 = ambient - dk
    s0 = solution_dim_at_zero(n, k)
    sinf = solution_dim_at_infinity(n, k, family)
    return DimReport(family, n, k, h1, h1 - s0 - sinf, s0, sinf, h1)


def dims_airy(n: int, k: int) -> DimReport:
    """Cohomology dimensions for the Airy family (middle equals full)."""
    require_admissible(Family.AIRY_Z, n, k)
    num = comb(k + n - 1, n - 1)
    if num % n:
        raise NonIntegralDimension(f"binom({k + n - 1}, {n - 1}) not divisible by {n}")
    h1 = num // n
    return DimReport(Family.AIRY_Z, n, k, h1, h1, 0, 0, h1)


def _pure_diamond(family: Family, n: int, k: int, weight: int, h) -> HodgeDiamond:
    """The pure diamond with h(p) at (p, weight - p), p = 0..weight."""
    return HodgeDiamond(family, n, k, weight, "pure",
                        {(p, weight - p): h(p) for p in range(weight + 1)})


def _mirrored(weight: int, h_low):
    """p -> h_low(min(p, weight - p)): a table read off its low half by Hodge symmetry."""
    return lambda p: h_low(min(p, weight - p))


def _character_diamond(family: Family, n: int, k: int, counts, zweight: int) -> HodgeDiamond:
    """The pure weight-(nk+1) table of V on n+1 slots, z of weight zweight.

    h(low) = s(low - zweight), less one at low = k in the tower case: there the
    z^{k/3} v_0^k line of degree k lies on the diagonal of the mixed table.
    """
    w, line = n * k + 1, has_tower(family, n, k)
    step = _slice_steps(counts, zweight)
    return _pure_diamond(family, n, k, w, _mirrored(
        w, lambda low: step(low - zweight) - (line and low == k)))


def hodge_kl_closed(n: int, k: int) -> HodgeDiamond:
    """Closed-route Hodge numbers on weight n*k + 1."""
    require_admissible(Family.KL_Z, n, k)
    return _character_diamond(Family.KL_Z, n, k, weight_character((k,), n + 1), n + 1)


def hodge_kl_from_basis(n: int, k: int) -> HodgeDiamond:
    """Basis-route Hodge numbers: degree-d middle classes land in h^{w-d, d}.

    Outside the tower case the filtration jump at every degree is sharp and
    the middle cardinalities are mirror-symmetric, so every degree contributes
    directly.  When n = 2 and 3 | k the jump is only sharp for d <= k; the
    upper half of the diamond is then filled in by Hodge symmetry, and the
    total is checked against the basis (the low half must carry exactly half
    of the middle dimension).
    """
    require_admissible(Family.KL_Z, n, k)
    chain = build_chain(Family.KL_Z, n, k)
    return _kl_diamond(chain, cohomology_bases(chain)[1])


def _kl_diamond(chain, mid) -> HodgeDiamond:
    """The diamond of a kl or v21 chain on weight n*k + 1, from its middle basis."""
    k, w = chain.k, chain.n * chain.k + 1
    cards = mid.cardinalities()
    if chain.tower is None:
        return _pure_diamond(chain.family, chain.n, k, w, lambda p: cards.get(w - p, 0))
    if 2 * sum(c for d, c in cards.items() if d <= k) != mid.total():
        raise DegenerateReduction("the low half of the middle basis is not half of it")
    return _pure_diamond(chain.family, chain.n, k, w, _mirrored(w, lambda d: cards.get(d, 0)))


def _airy_diamond(n: int, k: int, h) -> HodgeDiamond:
    """h(p) at the (n+1)-th fraction levels ((p+n+k)/(n+1), (nk+1-p)/(n+1)), p <= nk-n-k+1."""
    levels = {(_level(Fraction(p + n + k, n + 1)), _level(Fraction(n * k + 1 - p, n + 1))): h(p)
              for p in range(n * k - n - k + 2)}
    return HodgeDiamond(Family.AIRY_Z, n, k, k + 1, "pure", levels)


def hodge_airy_closed(n: int, k: int) -> HodgeDiamond:
    """Closed-route Airy Hodge numbers: h(p) = s(p) for Sym^k on n slots, z of weight n."""
    require_admissible(Family.AIRY_Z, n, k)
    return _airy_diamond(n, k, _slice_steps(weight_character((k,), n), n))


def hodge_airy_from_basis(n: int, k: int) -> HodgeDiamond:
    """Basis route: a degree-d class contributes at level (n*k + 1 - d)/(n + 1), p = top - d."""
    require_admissible(Family.AIRY_Z, n, k)
    chain = build_chain(Family.AIRY_Z, n, k)
    basis, _ = cohomology_bases(chain)
    cards = basis.cardinalities()
    top = n * k - n - k + 1
    diamond = _airy_diamond(n, k, lambda p: cards.get(top - p, 0))
    if diamond.total() != basis.total():
        raise DegenerateReduction(
            f"airy classes in degrees {sorted(d for d in cards if d > top)} lie past the "
            f"top degree {top} of the Hodge support")
    return diamond


def hodge_v21(route: str = "basis") -> HodgeDiamond:
    """Hodge numbers of the 15-dimensional family on weight 9: V of shape (3, 1) on 3 slots."""
    if route == "basis":
        chain = v21_chain()
        return _kl_diamond(chain, cohomology_bases(chain)[1])
    if route != "closed":
        raise ValueError(f"unknown route {route!r}")
    return _character_diamond(Family.V21, 2, 4, weight_character((3, 1), 3), 3)


def _mixed_diamond(family: Family, k: int, zweight: int) -> HodgeDiamond:
    """An n = 2 mixed table on weight w = 2k+1: the character diamond is its pure part, and
    h(p, p) counts the Q(t) string bottoms in degree w - p, plus the tower line at p = k + 1."""
    require_admissible(family, 2, k)
    w, line = 2 * k + 1, has_tower(family, 2, k)
    pure = _character_diamond(family, 2, k, weight_character((k,), 3), zweight)
    diagonal = {(p, p): bottom_multiplicity(2, k, w - p) + (line and p == k + 1)
                for p in range(k + 1, w + 1)}
    return HodgeDiamond(family, 2, k, w, "mixed", {**pure.levels, **diagonal})


def mixed_hodge_tilde_kl3(k: int) -> HodgeDiamond:
    """Mixed Hodge numbers of the full tilde cohomology for n = 2, any k >= 1; t has weight 1."""
    return _mixed_diamond(Family.KL_TILDE_T, k, 1)


def mixed_hodge_kl3(k: int) -> HodgeDiamond:
    """Mixed Hodge numbers of the full cohomology for n = 2 with 3 | k: hodge_kl_closed(2, k)
    plus the Q(t) bottoms and the line on the diagonal."""
    if k % 3:
        raise BadFamilyParams(f"the kl mixed table at k={k} needs 3 | k")
    return _mixed_diamond(Family.KL_Z, k, 3)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ConsistencyReport:
    n: int
    k: int
    checks: tuple
    notes: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def verify(n: int, k: int) -> ConsistencyReport:
    """Run every closed-vs-independent check that applies to (n, k)."""
    checks = []
    notes = []

    def record(name, passed, detail=""):
        checks.append(CheckResult(name, bool(passed), detail if not passed else ""))

    def record_route(name, closed, basis_route):
        # a basis route that breaks down is a failed check, not an abort
        try:
            basis = basis_route()
        except (RuntimeError, DegenerateReduction) as err:
            record(name, False, str(err))
        else:
            record(name, closed.levels == basis.levels,
                   f"closed={closed.nonzero()} basis={basis.nonzero()}")

    m = n + 1
    coprime = gcd(k, m) == 1
    kl_ok, airy_ok = admissible(Family.KL_Z, n, k), admissible(Family.AIRY_Z, n, k)
    w = n * k + 1
    chain = build_chain(Family.KL_Z, n, k)
    tchain = tilde_chain(chain)  # on the kl chain's V, and so its walk

    # counting clauses; the step counts are supported on [0, nk-n] and mirror
    # around nk-n (they are c(t) / (1 + t + .. + t^n), a quotient of palindromes), and
    # the tighter bound nk-n-k+1 with its own mirror belongs to the rank-n
    # grading used by the Airy family (slots 0..n-1, z-weight n)
    def support_mirror(rank, top):
        zero_beyond = all(lattice_step(rank, k, d) == 0 for d in range(top + 1, w + 2))
        mirror = all(lattice_step(rank, k, d) == lattice_step(rank, k, top - d)
                     for d in range(top + 1))
        return zero_beyond, mirror

    if coprime:
        zero_beyond, mirror = support_mirror(n, n * k - n)
        diff = all(lattice_step(n, k, d) - lattice_step(n, k, w - d)
                   == block_multiplicity(n, k, d) for d in range(w + 1))
        record("counting-clauses", zero_beyond and mirror and diff,
               f"zero_beyond={zero_beyond} mirror={mirror} diff={diff}")
    if airy_ok:
        zero_beyond, mirror = support_mirror(n - 1, n * k - n - k + 1)
        record("counting-clauses-airy", zero_beyond and mirror,
               f"zero_beyond={zero_beyond} mirror={mirror}")

    if n == 2:
        record("counting-closed-n2", all(
            lattice_step(2, k, d) == lattice_step_n2_closed(k, d)
            and block_multiplicity(2, k, d) == block_multiplicity_n2_closed(k, d)
            for d in range(k + 1)))

    # the steps again, from V's enumerated weights instead of the character:
    # dim slice(d) counts the indices of weight <= d, congruent to d mod n+1
    slices = [0] * (w + 1)
    for wt in chain.weights:
        slices[wt] += 1
    for d in range(m, w + 1):
        slices[d] += slices[d - m]
    record("step-series", all(b - a == lattice_step(n, k, d)
                              for d, (a, b) in enumerate(zip([0] + slices, slices))))

    if coprime:
        ok = all(lattice_step(n, k, p) - bottom_multiplicity(n, k, p)
                 == lattice_step(n, k, p - n - 1) for p in range(w // 2 + 1))
        record("hidden-step-identity", ok)

    # shift operator structure
    expected_blocks = {n * k - 2 * d + 1: block_multiplicity(n, k, d)
                       for d in range((n * k) // 2 + 1) if block_multiplicity(n, k, d)}
    got_blocks = jordan_block_sizes(chain)
    record("jordan-blocks", got_blocks == expected_blocks,
           f"got={got_blocks} expected={expected_blocks}")

    got_coker = shift_coker_dims(chain)
    expected_coker = [bottom_multiplicity(n, k, d) for d in range(n * k + 1)]
    record("shift-coker", got_coker == expected_coker,
           f"got={got_coker} expected={expected_coker}")

    # chain routes
    if kl_ok:
        rep, trep = dims_kl(n, k), dims_kl(n, k, Family.KL_TILDE_T)
        full, mid = cohomology_bases(chain)
        if chain.tower is None:
            # without the tower the full basis counts coker(theta_bar) per degree
            dims = [len(v) for v in full.vectors.values()]
            ok = all(dims[d] == lattice_step(n, k, d) for d in range(len(dims)))
            total_ok = sum(dims) == rep.dim_h1
            record("coker-matches-steps", ok and total_ok,
                   f"dims={dims}")
        record("basis-totals-kl",
               full.total() == rep.dim_h1 and mid.total() == rep.dim_mid,
               f"full={full.total()} mid={mid.total()} report={rep}")
        cards = mid.cardinalities()
        if chain.tower is None:
            mirror_ok = all(cards.get(d, 0) == cards.get(w - d, 0)
                            for d in range(w + 1))
            record("mid-degree-mirror", mirror_ok, f"mid={cards}")
        else:
            # the filtration jump is sharp only up to degree k here, so the
            # low half must carry exactly half of the middle dimension
            low = sum(c for d, c in cards.items() if d <= k)
            record("mid-low-half", 2 * low == mid.total(),
                   f"low={low} mid={cards}")
        record_route("route-kl", hodge_kl_closed(n, k), lambda: _kl_diamond(chain, mid))

    if airy_ok:
        closed = hodge_airy_closed(n, k)
        record_route("route-airy", closed, lambda: hodge_airy_from_basis(n, k))
        record("airy-dims", closed.total() == dims_airy(n, k).dim_h1,
               f"total={closed.total()}")

    # tilde chain
    if kl_ok:
        tfull, tmid = cohomology_bases(tchain)
        record("basis-totals-tilde",
               tfull.total() == trep.dim_h1 and tmid.total() == trep.dim_mid,
               f"full={tfull.total()} mid={tmid.total()} report={trep}")
    if n <= 3:
        kdims = kernel_slice_dims(tchain)
        dk = vanishing_tuple_count(m, k)
        if kl_ok:
            ok = all(kdims[d] == (dk if d >= n * k else 0) for d in range(len(kdims)))
            record("tilde-kernel-dims", ok, f"kernel={kdims}")
        else:
            # outside the gate the twisted eigenvectors still pin the kernel
            # rank from degree nk on, but they need not generate a saturated
            # module, so lower slices may already carry kernel
            tail = all(kdims[d] == dk for d in range(n * k, len(kdims)))
            monotone = all(kdims[d] <= kdims[d + 1] <= dk for d in range(n * k))
            record("tilde-kernel-tail", tail and monotone, f"kernel={kdims}")

    if n <= 3 and k <= 6:
        # theta_bar f_I = m c_I t f_I for the twisted eigenvectors f_I, decided
        # in the packed group ring Z[C_m] modulo Phi_m
        bad = eigen_relation_failure(tchain)
        record("tilde-eigen-relation", bad is None, f"first failure at {bad}")

    # dimension relations
    if kl_ok:
        record("dims-consistent",
               rep.dim_mid >= 0 and trep.dim_mid >= 0
               and trep.dim_h1 == m * rep.dim_h1,
               f"z={rep} tilde={trep}")

    # mixed tables
    if n == 2:
        dk3 = vanishing_tuple_count(3, k)
        mixed = [("mixed-tilde", mixed_hodge_tilde_kl3(k), comb(k + 2, 2) - dk3, dk3)]
        if k % 3 == 0:
            # the tower case passes the gate, so rep is the kl report
            mixed.append(("mixed-kl3", mixed_hodge_kl3(k), rep.dim_h1, 1))
            notes.append(
                "convention note: the degree-k correction to the pure 3|k table is "
                "applied before both congruence branches; applying it to only one "
                "branch would break the k=3 vanishing and the total-dimension sums.")
        for name, table, expected_total, extra in mixed:
            diag_total = sum(h for (p, q), h in table.levels.items() if p == q)
            record(name, table.total() == expected_total and diag_total == 1 + k // 2 + extra,
                   f"total={table.total()} expected={expected_total} diag={diag_total}")

    return ConsistencyReport(n, k, tuple(checks), tuple(notes))


def verify_sweep(max_n: int, max_k: int) -> list[ConsistencyReport]:
    out = []
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            out.append(verify(n, k))
    return out
