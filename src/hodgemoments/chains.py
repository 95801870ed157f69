"""Graded two-term complexes and their cohomology bases.

A chain is the module C[z] (x) V for a weight-graded space V carrying two
derivations: the shift N (weight +1) and the corner E (weight -(dim-1) on
multi-indices).  A third, the lowering F (weight -1), only certifies the
Jordan type of N: (N, F) spans an sl2 on V, so the weight counts give it.
The degree of z^a v is zweight * a + wt(v), and the degree-raising map is

    theta_bar = scale * (N + z^{ezshift} E),

which is homogeneous of degree +1 in every family:

    KL_Z        zweight n+1, ezshift 1,   scale 1
    KL_TILDE_T  zweight 1,   ezshift n+1, scale n+1
    AIRY_Z      zweight n,   ezshift 1,   scale 1
    V21         zweight 3,   ezshift 1,   scale 1   (projected 15-dim V)

Cohomology in each degree d is the cokernel of theta_bar from the degree
d-1 slice, further divided by the power tower z^* eta when n = 2 and 3 | k.
Its representatives are the slice monomials off the pivots of the image and
the tower.  The "middle" part drops the local solutions at 0, which are the
representatives in the z^0 layer, and, in the tower case, the z^{k/3} v_0^k
line in degree k; so the middle basis is a filter of the full one.  One walk
of the image echelons gives both (cohomology_bases) and leaves the image
ranks for the kernel dims.

The tower element eta = f_0 f_1 f_2 is the norm of f_0 from Q(zeta_3), an
integer polynomial in four terms (eta_power_vector), so its powers are plain
sparse integer products.  The group ring serves the eigen relation only: the
twisted eigenvectors f_I live in Z[C_m] = Z[x]/(x^m - 1), one Python int per
coefficient: x -> 2^B (Kronecker substitution) modulo M = 2^{mB} - 1, where
multiplying by x^e is a rotation of mB bits.  The relation is decided modulo
Phi_m: alpha vanishes at zeta_m iff Psi_m alpha = 0 in Z[C_m], Psi_m =
(x^m - 1) / Phi_m, and the packing decides that exactly under a bound proven
for the chain at hand (GroupRingPacking, eigen_relation_failure).
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .cyclo import cyclotomic_poly
from .families import BadFamilyParams, Family, has_tower, require_admissible
from .linalg import SparseEchelon, apply_columns
from .multiindex import MultiIndex, weak_compositions, weight
from .poly import div_exact_monic

Mono = tuple[int, int]  # (z_power, basis index into the graded space V)


class DegenerateReduction(ArithmeticError):
    """A basis reduction failed an exact consistency check; arithmetic bug."""


class Sl2CertificateFailed(ArithmeticError):
    """N, F and the weights of V fail to form an sl2 triple; arithmetic bug."""


@lru_cache(maxsize=None)
def _slot_moves(m: int) -> tuple[tuple, tuple, tuple]:
    """Slot moves (i, t, c), v_i -> c * v_t, of the shift, corner and lowering on m slots."""
    return (tuple((i, i + 1, 1) for i in range(m - 1)), ((m - 1, 0, 1),),
            tuple((i, i - 1, i * (m - i)) for i in range(1, m)))


def _leibniz(index: MultiIndex, moves: tuple) -> dict[MultiIndex, int]:
    """The derivation with these slot moves on a monomial v^I."""
    out = {}
    for i, t, c in moves:
        if index[i]:
            tgt = list(index)
            tgt[i] -= 1
            tgt[t] += 1
            out[tuple(tgt)] = index[i] * c
    return out


def shift_action(index: MultiIndex) -> dict[MultiIndex, int]:
    """Leibniz action of the shift v_i -> v_{i+1} on a monomial v^I."""
    return _leibniz(index, _slot_moves(len(index))[0])


def corner_action(index: MultiIndex) -> dict[MultiIndex, int]:
    """Leibniz action of the corner v_{m-1} -> v_0 on a monomial v^I."""
    return _leibniz(index, _slot_moves(len(index))[1])


def _lowering_action(index: MultiIndex) -> dict[MultiIndex, int]:
    """Leibniz action of the lowering v_i -> i(m-i) v_{i-1}, so that NF - FN = 2wt - k(m-1)."""
    return _leibniz(index, _slot_moves(len(index))[2])


@dataclass
class GradedChain:
    family: Family
    n: int
    k: int
    zweight: int
    ezshift: int
    scale: int
    labels: list            # per basis index: a multi-index, or an int for V21
    weights: list[int]
    nmat: list[dict]        # column j -> {i: coeff}, raises weight by 1
    emat: list[dict]        # column j -> {i: coeff}
    tower: dict | None      # {(z_power, j): int} for the eta power, else None
    tower_degree: int = 0
    fmat: list | None = None  # lowering columns, weight -1; None: from the labels on first use
    _strings: tuple | None = field(default=None, repr=False)  # the certified sl2 strings
    _image_ranks: list = field(default_factory=list, repr=False)  # per degree, from a full walk
    _by_weight: dict = field(default_factory=dict, repr=False)
    _kappa: list = field(default_factory=list, repr=False)

    @property
    def max_degree(self) -> int:
        """n*k + 2: one degree past the top of cohomology, where the basis must vanish."""
        return self.n * self.k + 2

    def __post_init__(self):
        by_w = {}
        for j, w in enumerate(self.weights):
            by_w.setdefault(w, []).append(j)
        self._by_weight = by_w
        # column key of every monomial (a, j): the position of j in V sorted by
        # (weight descending, j ascending), which is slice order in every slice
        self._kappa = [0] * len(self.weights)
        for key, j in enumerate(j for w in sorted(by_w, reverse=True) for j in by_w[w]):
            self._kappa[j] = key

    def slice_monomials(self, d: int) -> list[Mono]:
        """Basis (z_power, j) of the degree-d slice, z_power ascending."""
        if d < 0:
            return []
        return [(a, j) for a in range(d // self.zweight + 1)
                for j in self._by_weight.get(d - self.zweight * a, ())]

    def theta_bar_mono(self, mono: Mono) -> dict[Mono, int]:
        """theta_bar of a chain monomial, as chain monomials (degree +1)."""
        a, j = mono
        out = {}
        for i, c in self.nmat[j].items():
            key = (a, i)
            out[key] = out.get(key, 0) + self.scale * c
        for i, c in self.emat[j].items():
            key = (a + self.ezshift, i)
            out[key] = out.get(key, 0) + self.scale * c
        return out

    def _theta_bar_row(self, j: int) -> dict[int, int]:
        """theta_bar of the source (0, j) under the class column keys _kappa.

        N and E land in different weights, so dropping the z-power keeps
        their keys apart; the row is the same for every source (a, j).
        """
        kappa, scale = self._kappa, self.scale
        row = {kappa[i]: scale * c for i, c in self.nmat[j].items()}
        for i, c in self.emat[j].items():
            row[kappa[i]] = scale * c
        return row

    def tower_slice(self, d: int) -> dict[Mono, int] | None:
        """The tower element of degree d, if the family carries one."""
        if self.tower is None or d < self.tower_degree:
            return None
        excess = d - self.tower_degree
        if excess % self.zweight:
            return None
        r = excess // self.zweight
        return {(a + r, j): c for (a, j), c in self.tower.items()}


def _psi(m: int) -> tuple[int, ...]:
    """Psi_m = (x^m - 1) / Phi_m, constant term first."""
    return tuple(div_exact_monic([-1] + [0] * (m - 1) + [1], cyclotomic_poly(m)))


class GroupRingPacking:
    """Z[C_m] = Z[x]/(x^m - 1) as one int: x -> 2^B (Kronecker), modulo M = 2^{mB} - 1.

    alpha = sum_{e<m} a_e x^e packs to alpha(2^B) mod M.  As 2^{mB} = 1 mod M
    this is a ring map Z[C_m] -> Z/M, and x^e alpha is the rotation of the
    mB bits of any residue 0..M by eB bits.  Two facts make the zero test exact:

    Kronecker injectivity: if every |a_e| < 2^{B-1}, alpha(2^B) is a balanced
    base-2^B number in (-M/2, M/2), so it is 0 mod M only for alpha = 0.
    Psi_m: Phi_m Psi_m = x^m - 1 with both factors monic, so by Gauss's lemma
    Phi_m | alpha iff x^m - 1 | Psi_m alpha, i.e. iff Psi_m alpha = 0 in Z[C_m].
    So alpha(zeta_m) = 0 iff Psi_m(2^B) alpha(2^B) = 0 mod M, provided the
    coefficients of Psi_m alpha, at most ||Psi_m||_1 max |a_e|, are below 2^{B-1}.
    """

    def __init__(self, m: int, width: int):
        self.m, self.width = m, width
        self.modulus = (1 << m * width) - 1
        self.psi = self.pack(_psi(m))

    def pack(self, coeffs) -> int:
        """The residue of sum_e coeffs[e] x^e, e < m."""
        return sum(c << e * self.width for e, c in enumerate(coeffs)) % self.modulus

    def all_vanish_mod_phi(self, values) -> bool:
        """Whether every element with one of these residues vanishes in Z[zeta_m] (bound above)."""
        psi, modulus = self.psi, self.modulus
        return not any(psi * v % modulus for v in values)


def _raise_tables(m: int, k: int) -> list:
    """steps[L] = (len(levels[L + 1]), raises) for the products of k eigenvectors on m slots.

    levels[L] lists the weak compositions of L in lexicographic order, which
    is label order; raises[s][p] is the position of levels[L][p] + e_s in
    levels[L + 1].
    """
    levels = [list(weak_compositions(total, m)) for total in range(k + 1)]
    steps = []
    for low, high in zip(levels, levels[1:]):
        pos = {jj: p for p, jj in enumerate(high)}
        steps.append((len(high), [[pos[jj[:s] + (jj[s] + 1,) + jj[s + 1:]] for jj in low]
                                  for s in range(m)]))
    return steps


def _packed_times_eigenvector(prod: list, step: tuple, packing: GroupRingPacking,
                              i: int) -> list:
    """prod * f_i one level up, f_i = sum_s x^{i(n-s)} t^{n-s} v_s, n = m - 1.

    prod and the result are packed coefficients by label position; the
    t-power of v^J is n|J| - wt(J) and stays implicit.  x^e rotates each
    residue; the sums into one target are exact while its coefficients are
    nonnegative and below 2^B, so that nothing carries.
    """
    size, raises = step
    m, width = packing.m, packing.width
    mask, bits = packing.modulus, m * width
    out = [0] * size
    for s, targets in enumerate(raises):
        sh = i * (m - 1 - s) % m * width
        if sh:
            back = bits - sh
            for t, v in zip(targets, prod):
                out[t] += ((v << sh) & mask) | (v >> back)
        else:
            for t, v in zip(targets, prod):
                out[t] += v
    return out


def group_ring_eigenvector_products(n: int, k: int, packing: GroupRingPacking):
    """Yield (I, f_I in Z[C_m]) for the weak compositions I of k, in lexicographic order.

    f_I is a list of packed coefficients, one per weak composition J of k in
    label order, as in _packed_times_eigenvector.  Its coefficients are
    nonnegative and sum to m^k, so the packing needs m^k < 2^{B-1}.  Each
    f_I is the product of its parent (I minus one unit in its last nonzero
    slot) and one f_i, so the products share their prefixes; the walk is
    depth first and holds one product per slot.
    """
    if packing.m != n + 1 or (n + 1) ** k >> (packing.width - 1):
        raise ValueError(f"the packing cannot hold products of {k} eigenvectors on {n + 1} slots")
    steps = _raise_tables(n + 1, k)

    def walk(prefix, prod, slot, left):
        if slot == n:
            for level in range(k - left, k):
                prod = _packed_times_eigenvector(prod, steps[level], packing, n)
            yield prefix + (left,), prod
            return
        for e in range(left + 1):
            if e:
                prod = _packed_times_eigenvector(prod, steps[k - left + e - 1], packing, slot)
            yield from walk(prefix + (e,), prod, slot + 1, left - e)

    yield from walk((), [1], 0, k)


def eigen_relation_failure(chain: GradedChain) -> MultiIndex | None:
    """The first I, lexicographically, where theta_bar f_I = m c_I t f_I fails, or None.

    chain is a KL_TILDE_T chain and c_I = sum_e I_e zeta^e.  Both sides have
    degree nk + 1; at each monomial there theta_bar f_I - m lambda_I t f_I,
    lambda_I = sum_e I_e x^e, is an alpha in Z[C_m], and the relation holds iff
    every alpha vanishes at zeta_m.  The packing width B is proven for this
    chain's own theta_bar (see GroupRingPacking):

        every coefficient of f_I is at most m^k, so |alpha_e| <= (l1 + mk) m^k,
        with l1 the largest l1 norm of a theta_bar row into degree nk + 1;
        bound = ||Psi_m||_1 (l1 + mk) m^k and B = bound.bit_length() + 2,

    so the coefficients of Psi_m alpha stay below 2^{B-2}, with a factor 2 to spare.
    """
    if chain.family is not Family.KL_TILDE_T:
        raise BadFamilyParams("the eigen relation is stated on the kl-tilde chain")
    n, k, m = chain.n, chain.k, chain.n + 1
    rows = {}  # degree nk + 1 monomial -> [(label position of a source, theta_bar coefficient)]
    for j, w in enumerate(chain.weights):
        for key, c in chain.theta_bar_mono((n * k - w, j)).items():
            rows.setdefault(key, []).append((j, c))
    l1 = max(sum(abs(c) for _, c in row) for row in rows.values())
    bound = sum(map(abs, _psi(m))) * (l1 + m * k) * m ** k
    packing = GroupRingPacking(m, bound.bit_length() + 2)
    # m lambda_I t f_I has its v^J term at the monomial (nk + 1 - wt(J), J)
    rhs = {(n * k + 1 - w, j): j for j, w in enumerate(chain.weights)}
    checks = [(rows.get(key, ()), rhs.get(key)) for key in dict.fromkeys([*rows, *rhs])]
    for index, prod in group_ring_eigenvector_products(n, k, packing):
        lam = m * packing.pack(index)
        alphas = []
        for row, r in checks:
            acc = 0 if r is None else -lam * prod[r]
            for j, c in row:
                acc += c * prod[j]
            alphas.append(acc)
        if not packing.all_vanish_mod_phi(alphas):
            return index
    return None


# eta = f_0 f_1 f_2 = a^3 + b^3 + c^3 - 3abc, with f_i = zeta^{2i} a + zeta^i b + c
# and a, b, c = t^2 v_0, t v_1, v_2: the norm of f_0 from Q(zeta_3)
_ETA = {(6, (3, 0, 0)): 1, (3, (0, 3, 0)): 1, (0, (0, 0, 3)): 1, (3, (1, 1, 1)): -3}


def eta_power_vector(k: int) -> dict:
    """eta^{k/3} for n = 2, 3 | k, in t-coordinates: {(t_power, J): int}."""
    if k % 3:
        raise BadFamilyParams("the tower exists only when 3 divides k")
    out = {(0, (0, 0, 0)): 1}
    for _ in range(k // 3):
        prod = {}
        for (a, (x, y, z)), c in out.items():
            for (b, (p, q, r)), e in _ETA.items():
                key = (a + b, (x + p, y + q, z + r))
                prod[key] = prod.get(key, 0) + c * e
        out = {key: c for key, c in prod.items() if c}
    return out


def build_chain(family: Family, n: int, k: int) -> GradedChain:
    """Assemble the chain for a symmetric-power family."""
    if family is Family.V21:
        raise BadFamilyParams("the V21 chain is built by weyl.v21_chain")
    if family not in (Family.KL_Z, Family.KL_TILDE_T, Family.AIRY_Z):
        raise BadFamilyParams(f"unknown family {family}")
    if n < 1 or k < 1:
        raise BadFamilyParams("n and k must be positive")
    if family is Family.AIRY_Z and n < 2:
        raise BadFamilyParams("the Airy family needs n >= 2")
    m = n + 1 if family in (Family.KL_Z, Family.KL_TILDE_T) else n
    labels = sorted(weak_compositions(k, m))
    weights = [weight(ix) for ix in labels]
    pos = {ix: j for j, ix in enumerate(labels)}
    nmat = []
    emat = []
    for ix in labels:
        nmat.append({pos[t]: c for t, c in shift_action(ix).items()})
        emat.append({pos[t]: c for t, c in corner_action(ix).items()})
    if family is Family.KL_Z:
        zweight, ezshift, scale = n + 1, 1, 1
    elif family is Family.KL_TILDE_T:
        zweight, ezshift, scale = 1, n + 1, n + 1
    else:
        zweight, ezshift, scale = n, 1, 1
    tower = None
    tower_degree = 0
    if has_tower(family, n, k):
        raw = eta_power_vector(k)
        tower = {}
        for (a, jj), c in raw.items():
            if family is Family.KL_Z:
                if a % 3:
                    raise ArithmeticError("tower t-power not divisible by the chart weight")
                tower[(a // 3, pos[jj])] = c
            else:
                tower[(a, pos[jj])] = c
        tower_degree = 2 * k
    chain = GradedChain(family, n, k, zweight, ezshift, scale,
                        labels, weights, nmat, emat, tower, tower_degree)
    if family is Family.KL_TILDE_T:
        stable = comb(n + k, n)
        if len(chain.slice_monomials(chain.max_degree)) != stable:
            raise RuntimeError("tilde slices failed to stabilize; bad construction")
    return chain


def _image_echelons(chain: GradedChain):
    """Yield (d, echelon of im theta_bar in degree d) for d = 0..max_degree.

    Columns are the keys chain._kappa, under which the theta_bar row of a
    source j is the same in every degree.  Since theta_bar is C[z]-linear,
    the image in degree d + zweight is z times the image in degree d plus the
    rows of the weight d + zweight - 1 layer, so one echelon per residue class
    of d mod zweight serves the whole class and each source of V is offered
    once.  Layers go in ascending weight with j descending inside a layer:
    the top z-power first, which keeps fill-in low.  Degrees come one class
    at a time; callers must not add rows to the yielded echelon.
    """
    ranks = [0] * (chain.max_degree + 1)
    for r in range(chain.zweight):
        ech = SparseEchelon()
        for d in range(r, chain.max_degree + 1, chain.zweight):
            for j in reversed(chain._by_weight.get(d - 1, ())):
                ech.add_row(chain._theta_bar_row(j))
            ranks[d] = ech.rank
            yield d, ech
    chain._image_ranks = ranks


def kernel_slice_dims(chain: GradedChain) -> list[int]:
    """dim ker(theta_bar restricted to slice d) for d = 0..max_degree-1.

    The image ranks come from the last full walk of the class echelons, so
    after cohomology_bases no second walk is needed.
    """
    if not chain._image_ranks:
        for _ in _image_echelons(chain):
            pass
    ranks = chain._image_ranks
    return [len(chain.slice_monomials(d)) - ranks[d + 1] for d in range(chain.max_degree)]


@dataclass(frozen=True)
class BasisSet:
    """Cohomology basis data: per-degree representative vectors.

    kind is "full" or "mid".  Each vector is one chain monomial (z_power, j)
    with coefficient 1: a non-pivot column of the degree's modulus, which
    depends on the column order, so tests should rely on cardinalities,
    degrees and support rather than on which monomials are chosen.  Per
    degree the mid vectors are a subset of the full ones.
    """

    family: Family
    n: int
    k: int
    kind: str
    vectors: dict  # degree -> tuple of {Mono: int}

    def cardinalities(self) -> dict[int, int]:
        return {d: len(v) for d, v in self.vectors.items() if v}

    def total(self) -> int:
        return sum(len(v) for v in self.vectors.values())


def cohomology_bases(chain: GradedChain) -> tuple[BasisSet, BasisSet]:
    """The full and the middle basis per degree, read off one walk of the class echelons.

    Full: the slice monomials that are neither a pivot of the image of
    theta_bar nor the pivot the tower adds to it.  Middle: the full
    cohomology less the z^0 embeddings of the shift-cokernel complement
    (the local solutions at 0) and, when 3 | k, the z^{k/3} v_0^k line in
    degree k.  The middle basis is a filter of the full one, by two facts:

    * the z^0 columns come first and only z^0 sources reach them, so the
      image's z^0 pivots are N's pivots from weight d-1, and the z^0 full
      representatives are exactly the shift-cokernel complement;
    * the tower starts in degree 2k, where the only z^0 monomial, v_2^k, is
      in im N, so the tower pivot is never a z^0 column.

    The line monomial is the one of weight 0, the last column of its slice,
    so it is a full representative exactly when it is not in the image.  For
    airy the middle part is the full cohomology: mid carries the full basis.
    """
    require_admissible(chain.family, chain.n, chain.k)
    kappa = chain._kappa
    airy = chain.family is Family.AIRY_Z
    line = None if chain.tower is None else (chain.k // chain.zweight, chain._by_weight[0][0])
    full, mid = {}, {}
    for d, image in _image_echelons(chain):
        tow = chain.tower_slice(d)
        extra = None if tow is None else min(
            image.residual({kappa[j]: c for (_, j), c in tow.items()}), default=None)
        reps = [(a, j) for a, j in chain.slice_monomials(d)
                if kappa[j] not in image.rows and kappa[j] != extra]
        full[d] = tuple({mono: 1} for mono in reps)
        mid[d] = full[d] if airy else tuple({mono: 1} for mono in reps
                                            if mono[0] and mono != line)
    # the middle representatives are among the full ones, so one check covers both
    top = chain.max_degree
    if full[top]:
        raise RuntimeError(
            f"full basis still nonzero in degree {top}, past the top degree "
            f"{chain.n * chain.k + 1}: the input is outside the range where the "
            f"basis route is valid, or there is an arithmetic bug")
    return tuple(BasisSet(chain.family, chain.n, chain.k, kind, dict(sorted(vecs.items())))
                 for kind, vecs in (("full", full), ("mid", mid)))


def _sl2_strings(chain: GradedChain) -> tuple[int, dict[int, int]]:
    """(D, {w: number of N-strings from weight w to D - w, for w <= D/2}), certified exactly.

    With D = min wt + max wt, check basis vector by basis vector that N
    raises and F lowers the weight by one and that NF - FN = (2 wt - D) id.
    Then V is a finite-dimensional sl2-module, hence a sum of strings, and
    the strings starting at weight w <= D/2 number dim V_w - dim V_{w-1}.
    """
    if chain.fmat is None:
        pos = {ix: j for j, ix in enumerate(chain.labels)}
        chain.fmat = [{pos[t]: c for t, c in _lowering_action(ix).items()}
                      for ix in chain.labels]
    wts, nmat, fmat = chain.weights, chain.nmat, chain.fmat
    top = min(wts) + max(wts)
    for j, w in enumerate(wts):
        if any(wts[i] != w + 1 for i in nmat[j]) or any(wts[i] != w - 1 for i in fmat[j]):
            raise Sl2CertificateFailed(f"N or F does not move basis vector {j} by one weight")
        bracket = apply_columns(fmat, nmat[j])
        bracket[j] = bracket.get(j, 0) + 2 * w - top
        if apply_columns(nmat, fmat[j]) != {i: c for i, c in bracket.items() if c}:
            raise Sl2CertificateFailed(f"NF - FN is not 2 wt - {top} on basis vector {j}")
    by_w = chain._by_weight
    return top, {w: len(by_w.get(w, ())) - len(by_w.get(w - 1, ())) for w in range(top // 2 + 1)}


def _certified_strings(chain: GradedChain) -> tuple[int, dict[int, int]]:
    """_sl2_strings, certified once per chain and stored on it like fmat."""
    if chain._strings is None:
        chain._strings = _sl2_strings(chain)
    return chain._strings


def jordan_block_sizes(chain: GradedChain) -> dict[int, int]:
    """Jordan type of the shift N on the chain's space V: size -> count."""
    top, starts = _certified_strings(chain)
    return {top - 2 * w + 1: c for w, c in reversed(starts.items()) if c}


def shift_coker_dims(chain: GradedChain) -> list[int]:
    """Graded dims of coker(N) on V, weights 0..n*k: one per string, at its bottom."""
    _, starts = _certified_strings(chain)
    return [starts.get(w, 0) for w in range(chain.n * chain.k + 1)]
