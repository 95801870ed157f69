"""Graded two-term complexes and their cohomology bases.

A chain is the module C[z] (x) V for a weight-graded space V carrying two
derivations: the shift N (weight +1) and the corner E (weight -(dim-1) on
multi-indices).  A third, the lowering F (weight -1), only certifies the
Jordan type of N: (N, F) spans an sl2 on V, so the weight counts give it.
On V = Sym^k C^m they and the eigenvector products below move a monomial
v^J only to a neighbour J - e_s + e_t or J + e_s, and all of them read those
off one raise table, the position of J' + e_s for each J' a level down (_raises).
The degree of z^a v is zweight * a + wt(v), and the degree-raising map is

    theta_bar = N + z^e E,   times n+1 on KL_TILDE_T,

with the z-shift e of E fixed by homogeneity of degree +1 in every family:

    KL_Z        zweight n+1, e 1
    KL_TILDE_T  zweight 1,   e n+1   (t = z^{1/(n+1)}: KL_Z's V, N, E, tower)
    AIRY_Z      zweight n,   e 1
    V21         zweight 3,   e 1     (projected 15-dim V)

V is stored in slice order: weight descending, then label.  In one degree
the index j of a monomial (z_power, j) fixes its z-power, and the monomials
of a slice, z_power ascending, have j ascending; so j is the monomial's
column key in every slice.  Under it a theta_bar row and the tower are each
one row in every degree, and the z-powers are never stored.

Cohomology in each degree d is the cokernel of theta_bar from the degree
d-1 slice, further divided by the power tower z^* eta when n = 2 and 3 | k.
Its representatives are the monomials off the pivots of the image and the
tower.  The "middle" part drops the local solutions at 0, which are the
representatives in the z^0 layer, and, in the tower case, the z^{k/3} v_0^k
line in degree k; so the middle basis is a filter of the full one.  Both
(cohomology_bases) and the kernel dims read one walk of the image echelons,
the degree in which each column key first becomes an image pivot, once per
index j of V: in O(dim V + output), building no slice.  Every class of it,
the tower's too, is eliminated modulo a fixed prime under an exact
certificate that sends it back to the integers when it fails (_walk_images).
The walk reads only m, k and whether there is a tower, never the family or
n, so it is kept for the life of the process under those (_image_walk): the
rank-n Airy chain is the rank-n Kloosterman chain with a longer range of
degrees, and the kl-tilde chain m copies of the kl chain: both share its walk.

The tower element eta = f_0 f_1 f_2 is the norm of f_0 from Q(zeta_3), an
integer polynomial in four terms (eta_power_vector), so its powers are plain
sparse integer products.  eta^{k/3} is f_I for I = (k/3, k/3, k/3), whose
c_I is 0, so it is a cycle.  The group ring serves the eigen relation: the
twisted eigenvectors f_I live in Z[C_m] = Z[x]/(x^m - 1), one Python int per
coefficient: x -> 2^B (Kronecker substitution) modulo M = 2^{mB} - 1, where
multiplying by x^e is a rotation of mB bits.  The relation is decided modulo
Phi_m: alpha vanishes at zeta_m iff Psi_m alpha = 0 in Z[C_m], Psi_m =
(x^m - 1) / Phi_m, and the packing decides that exactly under a bound proven
for the chain at hand (GroupRingPacking, eigen_relation_failure).
"""

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from math import comb

from .cyclo import cyclotomic_poly
from .families import BadFamilyParams, Family, has_tower, require_admissible
from .linalg import PRIME, SparseEchelon, apply_columns
from .multiindex import MultiIndex, weak_compositions, weight
from .poly import div_exact_monic


class DegenerateReduction(ArithmeticError):
    """A basis reduction failed an exact consistency check; arithmetic bug."""


class Sl2CertificateFailed(ArithmeticError):
    """N, F and the weights of V fail to form an sl2 triple; arithmetic bug."""


@lru_cache(maxsize=None)
def _slot_moves(m: int) -> tuple[dict, dict, dict]:
    """Slot moves {i: (t, c)}, v_i -> c * v_t, of the shift, corner and lowering on m slots."""
    return ({i: (i + 1, 1) for i in range(m - 1)}, {m - 1: (0, 1)},
            {i: (i - 1, i * (m - i)) for i in range(1, m)})


def _raises(low, pos: dict) -> list[list[int]]:
    """raises[s][p] = pos[low[p] + e_s], reading low once: a generator serves, no level is kept."""
    raises = [[] for _ in next(iter(pos))]  # one list per slot of the labels
    for jj in low:
        for s, out in enumerate(raises):
            out.append(pos[jj[:s] + (jj[s] + 1,) + jj[s + 1:]])
    return raises


def _derivation_columns(labels: list, pos: dict, move_sets) -> list[list[dict]]:
    """Columns j -> {i: coeff} on Sym^k of the derivation with each set of slot moves.

    Every v^J with J_s > 0 is v^J' v_s for one J' of degree k - 1, and v_s ->
    c v_t sends it to J_s c v^{J' + e_t}: both ends are raises of J'.
    """
    raises = _raises(weak_compositions(sum(labels[0]) - 1, len(labels[0])), pos)
    out = []
    for moves in move_sets:
        cols = [{} for _ in labels]
        for s, (t, c) in moves.items():
            for source, target in zip(raises[s], raises[t]):
                cols[source][target] = labels[source][s] * c
        out.append(cols)
    return out


@dataclass
class GradedChain:
    family: Family
    n: int
    k: int
    zweight: int
    labels: list            # per index j of V, in slice order: a multi-index, or an int for V21
    weights: list[int]      # per j: descending, so each weight is one run of indices
    nmat: list[dict]        # column j -> {i: coeff}, raises weight by 1
    emat: list[dict]        # column j -> {i: coeff}
    tower: dict | None      # {j: int}: eta^{k/3}, of degree 2k, else None
    fmat: list | None = None  # lowering columns, weight -1; None: the certificate builds its own
    _by_weight: dict = field(default_factory=dict, repr=False)  # weight -> its indices j

    @property
    def max_degree(self) -> int:
        """n*k + 2: one degree past the top of cohomology, where the basis must vanish."""
        return self.n * self.k + 2

    def __post_init__(self):
        if not self._by_weight:  # else shared with the chain whose V this is (tilde_chain)
            for j, w in enumerate(self.weights):
                self._by_weight.setdefault(w, []).append(j)

    @cached_property
    def _strings(self) -> tuple[int, dict[int, int]]:
        """_sl2_strings, certified once per chain."""
        return _sl2_strings(self)

    def _theta_bar_row(self, j: int) -> dict[int, int]:
        """N + z^e E of the source (0, j), keyed by index in V: theta_bar, up to kl-tilde's n+1.

        N and E land in different weights, so dropping the z-power keeps
        their keys apart; the row is the same for every source (a, j).
        """
        return {**self.nmat[j], **self.emat[j]}


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


def _raise_tables(labels: list) -> list:
    """steps[L] = (len(levels[L + 1]), _raises of levels[L] into levels[L + 1]) for k eigenvectors.

    Level k is the chain's labels, whose order the products take; the lower
    levels of weak compositions come as weak_compositions yields them.
    """
    m, k = len(labels[0]), sum(labels[0])
    levels = [list(weak_compositions(total, m)) for total in range(k)] + [labels]
    return [(len(high), _raises(low, {jj: p for p, jj in enumerate(high)}))
            for low, high in zip(levels, levels[1:])]


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


def group_ring_eigenvector_products(labels: list, packing: GroupRingPacking):
    """Yield (I, f_I in Z[C_m]) for the weak compositions I of k, in lexicographic order.

    labels are the weak compositions of k on m slots, as a chain orders them.
    f_I is a list of packed coefficients, one per label J, as in
    _packed_times_eigenvector.  Its coefficients are nonnegative and sum to
    m^k, so the packing needs m^k < 2^{B-1}.  Each f_I is the product of its
    parent (I minus one unit in its last nonzero slot) and one f_i, so the
    products share their prefixes; the walk is depth first and holds one
    product per slot.
    """
    m, k = len(labels[0]), sum(labels[0])
    if packing.m != m or m ** k >> (packing.width - 1):
        raise ValueError(f"the packing cannot hold products of {k} eigenvectors on {m} slots")
    n, steps = m - 1, _raise_tables(labels)

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
        with l1 the largest l1 norm of the theta_bar = m (N + t^m E) rows into degree nk + 1;
        bound = ||Psi_m||_1 (l1 + mk) m^k and B = bound.bit_length() + 2,

    so the coefficients of Psi_m alpha stay below 2^{B-2}, with a factor 2 to spare.
    """
    if chain.family is not Family.KL_TILDE_T:
        raise BadFamilyParams("the eigen relation is stated on the kl-tilde chain")
    k, m = chain.k, chain.n + 1
    # zweight is 1, so a degree nk + 1 monomial is fixed by its index in V, and
    # the theta_bar rows name the targets of the sources (nk - wt(j), j)
    rows = [[] for _ in chain.weights]  # target i -> [(source j, theta_bar coefficient)]
    for j in range(len(rows)):
        for i, c in chain._theta_bar_row(j).items():
            rows[i].append((j, m * c))
    l1 = max(sum(abs(c) for _, c in row) for row in rows)
    bound = sum(map(abs, _psi(m))) * (l1 + m * k) * m ** k
    packing = GroupRingPacking(m, bound.bit_length() + 2)
    for index, prod in group_ring_eigenvector_products(chain.labels, packing):
        lam = m * packing.pack(index)
        # m lambda_I t f_I has its v^J term at the monomial (nk + 1 - wt(J), J)
        alphas = []
        for i, row in enumerate(rows):
            acc = -lam * prod[i]
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
    if family not in (Family.KL_Z, Family.KL_TILDE_T, Family.AIRY_Z):
        raise BadFamilyParams(f"no symmetric-power chain for {family}; V21's is weyl.v21_chain")
    if n < 1 or k < 1:
        raise BadFamilyParams("n and k must be positive")
    if family is Family.AIRY_Z and n < 2:
        raise BadFamilyParams("the Airy family needs n >= 2")
    m = n if family is Family.AIRY_Z else n + 1
    labels, weights = [], []  # slice order, each weight computed once
    for w, ix in sorted((-weight(ix), ix) for ix in weak_compositions(k, m)):
        labels.append(ix)
        weights.append(-w)
    pos = {ix: j for j, ix in enumerate(labels)}
    nmat, emat = _derivation_columns(labels, pos, _slot_moves(m)[:2])
    # eta^{k/3} is homogeneous of degree 2k, so J alone fixes each of its terms
    tower = ({pos[jj]: c for (_, jj), c in eta_power_vector(k).items()}
             if has_tower(family, n, k) else None)
    chain = GradedChain(Family.AIRY_Z if family is Family.AIRY_Z else Family.KL_Z,
                        n, k, m, labels, weights, nmat, emat, tower)
    return tilde_chain(chain) if family is Family.KL_TILDE_T else chain


def tilde_chain(chain: GradedChain) -> GradedChain:
    """The kl-tilde chain in the t chart, z = t^{n+1}, on a kl chain's V, N, E and tower."""
    tchain = replace(chain, family=Family.KL_TILDE_T, zweight=1)
    if sum(w <= tchain.max_degree for w in chain.weights) != comb(chain.n + chain.k, chain.n):
        raise RuntimeError("tilde slices failed to stabilize; bad construction")
    return tchain


_IMAGE_WALKS: dict = {}  # _walk_key -> (born, extra) of _walk_images, for the life of the process


def _walk_key(chain: GradedChain) -> tuple:
    """Exactly what the walk reads of a chain from build_chain: (m, k, tower).

    V is the weak compositions of k on m slots, N, E and the tower follow, and
    the walk runs on z-weight m; V21 has a space of its own.  So kl (n-1, k),
    kl-tilde (n-1, k) and airy (n, k) share one key.
    """
    if chain.family is Family.V21:
        return (Family.V21,)
    return (len(chain.labels[0]), chain.k, chain.tower is not None)


def _image_walk(chain: GradedChain) -> tuple:
    """The walk of this chain's image echelons, taken once per walk key.

    kl-tilde is m copies of kl, t^r C[z] for r < m: born is kl's, and each
    kl tower extra (d, key) is also the extra of the tilde degrees d + r.
    """
    key = _walk_key(chain)
    walk = _IMAGE_WALKS.get(key)
    if walk is None:
        walk = _IMAGE_WALKS[key] = _walk_images(chain)
    if chain.family is not Family.KL_TILDE_T:
        return walk
    born, extra = walk
    return born, tuple((d + r, key) for d, key in extra for r in range(chain.n + 1)
                       if d + r <= chain.max_degree)


def _walk_images(chain: GradedChain) -> tuple:
    """(born, extra) from the echelons of im theta_bar, one per class of the degree mod zweight.

    On kl-tilde the degree and zweight are its kl chain's (see _image_walk).
    born[c] is the degree in which column key c first becomes an image pivot,
    0 if never; so c is a pivot in degree d exactly when 0 < born[c] <= d,
    for every d in its class.  extra holds (d, key) for each tower degree d
    whose tower row leaves a residual: key is the pivot that row adds.  Both
    are immutable, and neither holds a row or the chain.

    Since theta_bar is C[z]-linear and a row is the same in every degree,
    the image in degree d + zweight is z times the image in degree d plus the
    rows of the weight d + zweight - 1 layer: one echelon serves the whole
    class and each source of V is offered once.  Layers go in ascending
    weight with j descending inside a layer: the top z-power first, which
    keeps fill-in low.  A row offered in degree d lands in weights = d mod
    zweight, so the classes' keys are disjoint and one born table holds all.

    The last layer enters at max weight + 1, so the walk is complete for any
    range of degrees.  It runs on to max weight + 2, the top degree of the
    Kloosterman chains, which are the only ones with a tower.

    Each class is walked mod PRIME, where no coefficient grows, and the walk
    is certified exactly, degree by degree:

    (a) every offered row gets a pivot.  A row independent mod p is
        independent over Q, so every rank, born count and cardinality is exact;
    (b) then the pivot columns carry a minor that is nonzero mod p, hence
        nonzero over Z, so the monomials off them are a basis of the cokernel
        over Q;
    (c) the pivots born in degree d at weight-d keys, the z^0 columns that
        only N from the weight d - 1 layer reaches, number rank_p(N) <=
        rank_Q(N) <= min(dim V_{d-1}, dim V_d).  Equality with that minimum
        makes the z^0 non-pivots a complement of im N over Q, which the
        middle filter of cohomology_bases reads;
    (d) on a tower chain theta_bar(eta^{k/3}) = 0, checked exactly once per
        walk, ties the rows offered by degree 2k + 1; from there on that class
        may leave one row without a pivot, rank_p = offered - 1 <= rank_Q;
    (e) a tower residual nonzero mod p reduces the p-integral one over Q, so
        its first column is an extra pivot over Q; one zero mod p fails.

    A failed class drops its pivots and extras and walks again over Z, so
    no answer rests on the choice of p.  Mod p the bases are the greedy ones
    over F_p, equal to the greedy bases over Q unless p divides a prefix minor.
    """
    tower, weights, by_weight = chain.tower, chain.weights, chain._by_weight
    zweight = chain.n + 1 if chain.family is Family.KL_TILDE_T else chain.zweight
    top = max(weights) + 2
    # (d): the N part of theta_bar(eta^{k/3}) cancels the z^e E part, key by key
    cycle = tower is not None and apply_columns(chain.nmat, tower) == {
        i: -c for i, c in apply_columns(chain.emat, tower).items()}
    # z^r eta, the tower element of degree 2k + r zweight, is one row
    tower_degrees = () if tower is None else range(2 * chain.k, top + 1, zweight)
    born = [0] * len(weights)
    extra = []
    for r in range(zweight):
        for modulus in (PRIME, None):
            ech, offered, kept = SparseEchelon(modulus), 0, len(extra)
            for d in range(r, top + 1, zweight):
                layer, keys = by_weight.get(d - 1, ()), by_weight.get(d, ())
                for j in reversed(layer):
                    pivot = ech.add_row(chain._theta_bar_row(j))
                    if pivot is not None:
                        born[pivot] = d
                offered += len(layer) - (cycle and d == 2 * chain.k + 1)  # (d)
                residual = ech.residual(tower) if d in tower_degrees else None
                if residual:
                    extra.append((d, min(residual)))
                # (a), (e), and (c) on the weight-d keys, which no earlier degree reaches
                if modulus is not None and (ech.rank < offered or residual == {} or sum(
                        c in ech.rows for c in keys) < min(len(layer), len(keys))):
                    for c in ech.rows:  # forget the class, and walk it over Z
                        born[c] = 0
                    del extra[kept:]
                    break
            else:  # certified, or walked over Z
                break
    return tuple(born), tuple(extra)


def kernel_slice_dims(chain: GradedChain) -> list[int]:
    """dim ker(theta_bar restricted to slice d) for d = 0..max_degree-1, building no slice.

    dims[d] counts V's weight-d indices less the keys born in degree d + 1; summed
    over the class of d, that is dim slice(d) less the rank of the image in d + 1.
    """
    top, zweight = chain.max_degree, chain.zweight
    dims = [0] * top
    born, _ = _image_walk(chain)
    for w in chain.weights:  # every weight is at most n*k < top
        dims[w] += 1
    for b in filter(None, born):
        dims[b - 1] -= 1
    for d in range(zweight, top):
        dims[d] += dims[d - zweight]
    return dims


@dataclass(frozen=True)
class BasisSet:
    """Cohomology basis data: per-degree representatives.

    kind is "full" or "mid".  Each representative is one chain monomial
    (z_power, j), the class of that basis vector: a non-pivot column of the
    degree's modulus, which depends on the column order, so tests should rely
    on cardinalities, degrees and support rather than on which monomials are
    chosen.  Per degree the mid monomials are a subset of the full ones.
    """

    kind: str
    vectors: dict  # degree -> tuple of (z_power, index j of V), j also its column key

    def cardinalities(self) -> dict[int, int]:
        return {d: len(v) for d, v in self.vectors.items() if v}

    def total(self) -> int:
        return sum(len(v) for v in self.vectors.values())


def cohomology_bases(chain: GradedChain) -> tuple[BasisSet, BasisSet]:
    """The full and the middle basis per degree, read off the walk of the class echelons.

    Full: the slice monomials that are neither a pivot of the image of
    theta_bar nor the pivot the tower adds to it.  Index j of V gives (a, j) in
    each degree wt(j) + zweight a below born[j], or in every degree if j is
    never born, and j ascending is slice order.  The tower pivot, never an
    image pivot, is in its degree's list and leaves it.  Middle: the full
    cohomology less the z^0 embeddings of the shift-cokernel complement (the
    local solutions at 0) and, when 3 | k, the z^{k/3} v_0^k line in degree
    k.  The middle basis is a filter of the full one, by two facts:

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
    airy = chain.family is Family.AIRY_Z
    top, zweight, weights = chain.max_degree, chain.zweight, chain.weights
    line = None if chain.tower is None else (chain.k // zweight, chain._by_weight[0][0])
    born, extra = _image_walk(chain)
    full = {d: [] for d in range(top + 1)}
    for j, (w, b) in enumerate(zip(weights, born)):
        for d in range(w, b or top + 1, zweight):
            full[d].append(((d - w) // zweight, j))
    for d, key in extra:
        full[d].remove(((d - weights[key]) // zweight, key))
    full = {d: tuple(reps) for d, reps in full.items()}
    mid = {d: reps if airy else tuple(mono for mono in reps if mono[0] and mono != line)
           for d, reps in full.items()}
    # the middle representatives are among the full ones, so one check covers both
    if full[top]:
        raise RuntimeError(
            f"full basis still nonzero in degree {top}, past the top degree "
            f"{chain.n * chain.k + 1}: the input is outside the range where the "
            f"basis route is valid, or there is an arithmetic bug")
    return tuple(BasisSet(kind, vecs) for kind, vecs in (("full", full), ("mid", mid)))


def _sl2_strings(chain: GradedChain) -> tuple[int, dict[int, int]]:
    """(D, {w: number of N-strings from weight w to D - w, for w <= D/2}), certified exactly.

    With D = min wt + max wt, check basis vector by basis vector that N
    raises and F lowers the weight by one and that NF - FN = (2 wt - D) id.
    Then V is a finite-dimensional sl2-module, hence a sum of strings, and
    the strings starting at weight w <= D/2 number dim V_w - dim V_{w-1}.
    """
    wts, nmat, fmat = chain.weights, chain.nmat, chain.fmat
    if fmat is None:
        pos = {ix: j for j, ix in enumerate(chain.labels)}
        lowering = _slot_moves(len(chain.labels[0]))[2]
        fmat = _derivation_columns(chain.labels, pos, [lowering])[0]
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


def jordan_block_sizes(chain: GradedChain) -> dict[int, int]:
    """Jordan type of the shift N on the chain's space V: size -> count."""
    top, starts = chain._strings
    return {top - 2 * w + 1: c for w, c in reversed(starts.items()) if c}


def shift_coker_dims(chain: GradedChain) -> list[int]:
    """Graded dims of coker(N) on V, weights 0..n*k: one per string, at its bottom."""
    _, starts = chain._strings
    return [starts.get(w, 0) for w in range(chain.n * chain.k + 1)]
