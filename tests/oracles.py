"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately written from scratch with naive
algorithms (cofactor determinants, left-multiplication breadth-first search,
union-find, orbit enumeration).  Nothing here imports from ``kmgroups``, so a
bug in the package cannot silently agree with its own oracle.
"""

from __future__ import annotations

import enum
import itertools
import math
import random


# ---------------------------------------------------------------------------
# Exact linear algebra, the slow way.


def mul(a, b):
    """Multiply two square integer matrices given as lists of lists."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            acc = 0
            for k in range(n):
                acc += a[r][k] * b[k][c]
            out[r][c] = acc
    return out


def eye(n):
    return [[1 if r == c else 0 for c in range(n)] for r in range(n)]


def to_key(mat):
    return tuple(tuple(row) for row in mat)


def det_cofactor(mat):
    """Determinant by first-row cofactor expansion.

    >>> det_cofactor([])
    1
    >>> det_cofactor([[2, -1], [-1, 2]])
    3
    >>> det_cofactor([[2, -2], [-2, 2]])
    0
    >>> det_cofactor([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    4
    """
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for c in range(n):
        if mat[0][c] == 0:
            continue
        minor = [[mat[r][cc] for cc in range(n) if cc != c] for r in range(1, n)]
        total += (-1) ** c * mat[0][c] * det_cofactor(minor)
    return total


def principal_minor(mat, subset):
    subset = sorted(subset)
    return det_cofactor([[mat[r][c] for c in subset] for r in subset])


def all_principal_minor_signs(mat):
    """Yield (subset, determinant) over every nonempty index subset."""
    n = len(mat)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            yield subset, principal_minor(mat, subset)


def trichotomy(mat):
    """Finite / affine / indefinite for an indecomposable integer matrix."""
    n = len(mat)
    full = det_cofactor(mat)
    proper_positive = all(
        principal_minor(mat, s) > 0
        for size in range(1, n)
        for s in itertools.combinations(range(n), size)
    )
    if full > 0 and proper_positive:
        return "finite"
    if full == 0 and proper_positive:
        return "affine"
    return "indefinite"


# ---------------------------------------------------------------------------
# Bond orders, re-derived rather than shared with the package.


def bond_order(aij, aji):
    """Order of s_i s_j from the off-diagonal product.

    >>> [bond_order(0, 0), bond_order(-1, -1), bond_order(-1, -2)]
    [2, 3, 4]
    >>> bond_order(-1, -3)
    6
    >>> bond_order(-2, -2)
    inf
    """
    p = aij * aji
    if p == 0:
        return 2
    if p == 1:
        return 3
    if p == 2:
        return 4
    if p == 3:
        return 6
    return math.inf


# ---------------------------------------------------------------------------
# Group enumeration by plain breadth-first search over matrices.


def generator_matrix(gcm, i):
    """Matrix of the i-th simple reflection, columns carrying root coords."""
    n = len(gcm)
    s = eye(n)
    for c in range(n):
        s[i][c] = (1 if c == i else 0) - gcm[i][c]
    return s


def enumerate_group(gcm, cap):
    """BFS the whole group; return (halted, count).

    Multiplies new generators on the left, so the search order differs from
    any right-multiplication scheme.  ``halted`` is False when the visited
    set exceeds ``cap`` before closing.
    """
    n = len(gcm)
    gens = [generator_matrix(gcm, i) for i in range(n)]
    start = eye(n)
    seen = {to_key(start)}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                cand = mul(g, w)
                key = to_key(cand)
                if key not in seen:
                    seen.add(key)
                    if len(seen) > cap:
                        return False, None
                    nxt.append(cand)
        frontier = nxt
    return True, len(seen)


def ball_matrices(gcm, radius, generators=None):
    """All group elements of word length <= radius, as matrix key tuples.

    ``generators`` restricts the search to a standard subgroup; repeats are
    harmless.
    """
    n = len(gcm)
    gens = [generator_matrix(gcm, i) for i in (range(n) if generators is None else generators)]
    start = eye(n)
    seen = {to_key(start)}
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in gens:
                cand = mul(g, w)
                key = to_key(cand)
                if key not in seen:
                    seen.add(key)
                    nxt.append(cand)
        frontier = nxt
    return seen


def word_matrix(gcm, word):
    """The product of the generator matrices of a word, left to right."""
    out = eye(len(gcm))
    for k in word:
        out = mul(out, generator_matrix(gcm, k))
    return out


def peel_word(gcm, key, pick=min):
    """Reduced word of a matrix: strip the ``pick`` (min: canonical) right
    descent.

    A right descent is a generator whose column (the image of its simple
    root) is negative.  The letters come off the right end of the word.
    """
    n = len(gcm)
    ident = eye(n)
    cur = [list(row) for row in key]
    letters = []
    while cur != ident:
        k = pick(j for j in range(n) if any(cur[r][j] < 0 for r in range(n)))
        letters.append(k)
        cur = mul(cur, generator_matrix(gcm, k))
    return tuple(reversed(letters))


def sorted_ball(gcm, radius, generators=None):
    """The ball as (canonical word, matrix key) pairs, by length then word.

    The seen-set search of ``ball_matrices``, then a sort by the words
    peeled from each matrix.
    """
    pairs = [(peel_word(gcm, key), key) for key in ball_matrices(gcm, radius, generators)]
    return sorted(pairs, key=lambda pair: (len(pair[0]), pair[0]))


def matrix_order(mat, cap):
    """Multiplicative order of a matrix, or None past the cap."""
    n = len(mat)
    ident = eye(n)
    power = [row[:] for row in mat]
    k = 1
    while power != ident:
        power = mul(power, mat)
        k += 1
        if k > cap:
            return None
    return k


def height_scan_order(mat, cap):
    """Multiplicative order of a Weyl group matrix by one step per power.

    Follows the row of column sums (the heights of the images of the
    simple roots) of mat^k for k = 1 .. cap; the identity is the only
    element whose row is all ones.  None past the cap.
    """
    n = len(mat)
    ones = [1] * n
    heights = [sum(mat[r][c] for r in range(n)) for c in range(n)]
    for k in range(1, cap + 1):
        if heights == ones:
            return k
        heights = [sum(heights[r] * mat[r][c] for r in range(n)) for c in range(n)]
    return None


def product_power_lengths(gcm, mat, n_max):
    """Lengths of w, w^2, ..., w^n_max: one dense product and one peel a power."""
    power, lengths = eye(len(mat)), []
    for _ in range(n_max):
        power = mul(power, mat)
        lengths.append(len(peel_word(gcm, power)))
    return lengths


def orbit_positive_roots(gcm, radius, max_height):
    """Positive real roots of height <= max_height, by orbit of the basis.

    Applies every element of the radius-``radius`` ball to every simple
    root and keeps the nonnegative images.  The radius must be generous
    enough to reach every root of the requested height.
    """
    n = len(gcm)
    roots = set()
    for key in ball_matrices(gcm, radius):
        for j in range(n):
            col = tuple(key[r][j] for r in range(n))
            if all(x >= 0 for x in col) and sum(col) <= max_height:
                roots.add(col)
    return roots


def witnessed_roots(gcm, max_height):
    """Positive real roots of height <= max_height with witnesses, in the
    discovery order of a breadth-first walk from the simple roots.

    Each entry is (coords, witness matrix key, i) with coords = w(alpha_i);
    a root s_k(beta) found from beta = w(alpha_i) gets the witness s_k w, a
    dense left product.
    """
    n = len(gcm)
    gens = [generator_matrix(gcm, k) for k in range(n)]
    found = [
        (tuple(1 if j == i else 0 for j in range(n)), eye(n), i)
        for i in range(n)
        if max_height >= 1
    ]
    seen = {coords for coords, _, _ in found}
    head = 0
    while head < len(found):
        coords, w, i = found[head]
        head += 1
        for k, g in enumerate(gens):
            new = tuple(sum(g[r][c] * coords[c] for c in range(n)) for r in range(n))
            if min(new) < 0 or sum(new) > max_height or new in seen:
                continue
            seen.add(new)
            found.append((new, mul(g, w), i))
    return [(coords, to_key(w), i) for coords, w, i in found]


# ---------------------------------------------------------------------------
# Graphs.


def uf_components(n, edges):
    """Connected components of an undirected graph via union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(sorted(g) for g in groups.values())


def is_connected(vertices, edges):
    vertices = list(vertices)
    if len(vertices) <= 1:
        return True
    index = {v: i for i, v in enumerate(vertices)}
    comps = uf_components(
        len(vertices),
        [(index[a], index[b]) for a, b in edges if a in index and b in index],
    )
    return len(comps) == 1


def nerve_connectivity(simplices):
    """First failing J of the strong-connectivity test, or None.

    ``simplices`` is a list of vertex sets closed downwards.  J runs over the
    empty set and then every simplex by (size, members); J fails when the
    vertices outside J are not joined through the simplices disjoint from J.
    Every simplex is read for every J, so this is quadratic in the nerve.
    """
    simplices = sorted(
        {frozenset(s) for s in simplices}, key=lambda s: (len(s), sorted(s))
    )
    vertices = sorted(set().union(*simplices))
    for banned in [frozenset()] + simplices:
        edges = [
            pair
            for s in simplices
            if not s & banned
            for pair in itertools.combinations(sorted(s), 2)
        ]
        if not is_connected([v for v in vertices if v not in banned], edges):
            return banned
    return None


def maximal_sets(sets):
    """The sets not strictly inside another one, in input order.

    >>> maximal_sets([{0}, {1}, {0, 1}, {2}])
    [frozenset({0, 1}), frozenset({2})]
    """
    sets = [frozenset(s) for s in sets]
    return [s for s in sets if not any(s < t for t in sets)]


def hasse_covers(sets):
    """Sorted index pairs (a, b) where sets[b] covers sets[a] under inclusion.

    Every pair is tried against every possible middle set, so this is cubic
    in the number of sets.

    >>> hasse_covers([set(), {0}, {0, 1}, {1}])
    [(0, 1), (0, 3), (1, 2), (3, 2)]
    """
    sets = [frozenset(s) for s in sets]
    covers = []
    for a, small in enumerate(sets):
        for b, large in enumerate(sets):
            if not (small < large):
                continue
            if any(small < mid < large for mid in sets):
                continue
            covers.append((a, b))
    return sorted(covers)


def all_subsets(base):
    """Every subset of ``base``, sorted by size then members.

    >>> [sorted(s) for s in all_subsets({2, 0})]
    [[], [0], [2], [0, 2]]
    """
    members = sorted(base)
    return [
        frozenset(c)
        for size in range(len(members) + 1)
        for c in itertools.combinations(members, size)
    ]


def essential_scan(diagram):
    """Every essential subset of a Coxeter diagram, sorted by size then
    members: all 2^k subsets of the non-spherical components, each
    decomposed.  ``diagram`` is duck-typed (``components``,
    ``spherical_type``, ``decompose``)."""
    base = [
        i for c in diagram.components() if diagram.spherical_type(c) is None for i in c
    ]
    return tuple(s for s in all_subsets(base) if diagram.decompose(s).is_essential)


def bitmask_covers(sets):
    """Sorted Hasse pairs of sets given by size, from one bitmask scan.

    A later set b that contains a covers a unless it contains a cover of a
    already found, so this is quadratic in the number of sets.

    >>> bitmask_covers([set(), {0}, {1}, {0, 1}])
    [(0, 1), (0, 2), (1, 3), (2, 3)]
    """
    masks = [sum(1 << i for i in s) for s in sets]
    covers = []
    for a, small in enumerate(masks):
        found = []
        for b, large in enumerate(masks[a + 1:], a + 1):
            if large & small == small and not any(c & large == c for c in found):
                found.append(large)
                covers.append((a, b))
    return covers


def max_finite_order(diagram, base):
    """Largest |W_J| over every spherical J inside ``base`` (1 if none), by
    classifying each one; ``diagram`` needs ``spherical_subsets`` and
    ``finite_group_order``."""
    orders = (diagram.finite_group_order(j)[0] for j in diagram.spherical_subsets(base))
    return max(orders, default=1)


def minimal_non_spherical(diagram):
    """The non-spherical subsets whose proper subsets are all spherical, by
    brute force over every subset; ``diagram`` needs ``rank`` and
    ``is_spherical``."""
    return [
        s
        for s in all_subsets(range(diagram.rank))
        if not diagram.is_spherical(s)
        and all(diagram.is_spherical(s - {i}) for i in s)
    ]


class Comparison(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def compare_commensurability(diagram, left, right):
    """Order of the commensurability classes of two standard parabolics.

    The class of P_J embeds into that of P_K up to finite index exactly when
    the essential part of J is contained in the essential part of K, so the
    comparison reduces to set containment of essential parts; a second
    reading of the essential poset's order.  ``diagram`` needs
    ``decompose``.
    """
    a = diagram.decompose(left).essential_part
    b = diagram.decompose(right).essential_part
    if a == b:
        return Comparison.EQUAL
    if a <= b:
        return Comparison.LESS
    if b <= a:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


def parabolic_name(diagram, subset):
    """B for the empty set, G for every generator, else P_ and the labels."""
    if not subset:
        return "B"
    if subset == frozenset(range(diagram.rank)):
        return "G"
    return "P_" + diagram.label_set(subset)


def open_subgroup_classes(diagram):
    """(set, class label, representative, description) of each essential
    set, in the order of ``essential_scan``; ``diagram`` needs what
    ``essential_scan`` needs, ``rank`` and ``label_set``."""
    out = []
    for s in essential_scan(diagram):
        name = parabolic_name(diagram, s)
        if not s:
            description = "compact open subgroups"
        elif name == "G":
            description = "open subgroups of finite index in G"
        else:
            description = "open subgroups commensurable with a conjugate of " + name
        out.append((s, "[W_" + diagram.label_set(s) + "]", name, description))
    return out


def sandwiches(diagram):
    """The sandwich records of every nonempty essential J and spherical J'
    inside the perp of J, as (essential, extra, union, parabolic, statement,
    refined lower bound) tuples, and whether every perp is spherical.

    The perp is taken by its definition, the generators whose order with
    every member of J is 2, and each J' by testing every subset of it.
    ``diagram`` needs ``orders``, ``is_spherical`` and what
    ``open_subgroup_classes`` needs."""
    records, compact_or_open = [], True
    for j in essential_scan(diagram)[1:]:
        perp = frozenset(i for i in range(diagram.rank)
                         if all(diagram.orders[i][k] == 2 for k in j))
        compact_or_open = compact_or_open and diagram.is_spherical(perp)
        extras = [e for e in all_subsets(perp) if diagram.is_spherical(e)]
        for extra in extras:  # the empty set first
            name = parabolic_name(diagram, j | extra)
            records.append((
                j, extra, j | extra, name,
                f"some conjugate gHg^-1 satisfies Res({name}) <= gHg^-1 <= {name}",
                f"L+_{diagram.label_set(j)} U_{diagram.label_set(j | perp)} <= Res({name})",
            ))
    return records, compact_or_open


# ---------------------------------------------------------------------------
# Conjugating moves the dense way: w^{-1} s_j w as two matrix products,
# compared with every generator matrix.


def coxeter_components(gcm, subset):
    """Components of the graph with an edge where a_ij != 0, restricted to
    ``subset``, as frozensets."""
    members = sorted(subset)
    edges = [
        (a, b)
        for a, i in enumerate(members)
        for b, j in enumerate(members)
        if a < b and gcm[i][j]
    ]
    return [frozenset(members[a] for a in c) for c in uf_components(len(members), edges)]


def finite_type(gcm, subset):
    """Whether W_subset is finite: every principal minor of A_subset positive."""
    members = sorted(subset)
    sub = [[gcm[i][j] for j in members] for i in members]
    return all(det > 0 for _, det in all_principal_minor_signs(sub))


def longest_matrix(gcm, subset):
    """w_K of a finite W_K: right-multiply by the smallest generator of K
    whose column is still positive, until every column of K is negative."""
    n = len(gcm)
    w = eye(n)
    while True:
        k = next((k for k in sorted(subset) if any(w[r][k] > 0 for r in range(n))), None)
        if k is None:
            return w
        w = mul(w, generator_matrix(gcm, k))


def dense_conjugate_set(gcm, w, w_inv, subset):
    """{k : w^{-1} s_j w = s_k, j in subset}: two products for each j, the
    result compared with every generator matrix; None when a conjugate is
    not a generator."""
    n = len(gcm)
    gens = [generator_matrix(gcm, k) for k in range(n)]
    out = set()
    for j in sorted(subset):
        conj = mul(mul(w_inv, gens[j]), w)
        hit = [k for k in range(n) if gens[k] == conj]
        if not hit:
            return None
        out.add(hit[0])
    return frozenset(out)


def dense_move(gcm, source, s):
    """Deodhar's move of ``source`` across ``s`` by dense products: the
    component K of source + {s} holding s, nu = w_{K-s} w_K and the target
    nu^{-1} source nu; nu and the target are None when W_K is infinite."""
    component = next(c for c in coxeter_components(gcm, source | {s}) if s in c)
    if not finite_type(gcm, component):
        return component, None, None
    # both longest elements are involutions, so nu^{-1} = w_K w_{K-s}
    small, large = longest_matrix(gcm, component - {s}), longest_matrix(gcm, component)
    nu = mul(small, large)
    return component, nu, dense_conjugate_set(gcm, nu, mul(large, small), source)


def dense_orbit(gcm, source):
    """The move graph from ``source`` as the dense route walks it: breadth
    first, s ascending, each subset kept at its first arrival.  Returns
    subset -> (chain of subsets from ``source``, witness matrix), the witness
    being the product of the nu of the moves along the chain."""
    n = len(gcm)
    found = {source: ((source,), eye(n))}
    queue = [source]
    for cur in queue:
        for s in range(n):
            if s in cur:
                continue
            _, nu, target = dense_move(gcm, cur, s)
            if nu is None or target in found:
                continue
            chain, w = found[cur]
            found[target] = (chain + (target,), mul(w, nu))
            queue.append(target)
    return found


# ---------------------------------------------------------------------------
# Growth series by Steinberg's formula: counts of elements by length from
# the degrees of the finite parabolics, with no element built.


def degrees(name):
    """The degrees of the finite Weyl group of type ``name``, A to G.

    Their product is the group order and the sum of (d - 1) the number of
    positive roots (Humphreys, "Reflection Groups and Coxeter Groups", 3.7).

    >>> degrees("A3"), degrees("B3"), degrees("D4"), degrees("G2")
    ((2, 3, 4), (2, 4, 6), (2, 4, 6, 4), (2, 6))
    """
    family, n = name[0], int(name[1:])
    if family == "A":
        return tuple(range(2, n + 2))
    if family == "B":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return (*range(2, 2 * n - 1, 2), n)
    return {
        "E6": (2, 5, 6, 8, 9, 12),
        "E7": (2, 6, 8, 10, 12, 14, 18),
        "E8": (2, 8, 12, 14, 18, 20, 24, 30),
        "F4": (2, 6, 8, 12),
        "G2": (2, 6),
    }[name]


def series_mul(a, b, length):
    """The product of two integer power series, up to t^length."""
    out = [0] * (length + 1)
    for i, x in enumerate(a[: length + 1]):
        if x:
            for j, y in enumerate(b[: length + 1 - i]):
                out[i + j] += x * y
    return out


def series_inverse(a, length):
    """1/a up to t^length, for an integer series with a[0] == 1."""
    assert a[0] == 1
    out = [1] + [0] * length
    for k in range(1, length + 1):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
    return out


def growth_series(spherical, length):
    """The number of elements of each length 0..``length`` of W, by
    Steinberg's formula 1/W(t) = sum of (-1)^|T| t^N_T / W_T(t) over the
    spherical T, the empty one included (Steinberg, "Endomorphisms of
    linear algebraic groups", 1968).  ``spherical`` holds one (|T|,
    degrees of W_T) pair per T; W_T(t) is the product of the [d]_t =
    1 + t + ... + t^(d-1) and N_T the sum of the (d - 1).  For a finite W
    the sum includes T = S, and the series is the whole Poincare
    polynomial.

    >>> growth_series([(0, ()), (1, (2,)), (1, (2,))], 4)  # affine A1
    [1, 2, 2, 2, 2]
    >>> growth_series([(0, ()), (1, (2,)), (1, (2,)), (2, (2, 3))], 4)  # A2
    [1, 2, 2, 1, 0]
    """
    total = [0] * (length + 1)
    for size, degs in spherical:
        shift = sum(d - 1 for d in degs)
        if shift > length:
            continue
        poincare = [1]
        for d in degs:
            poincare = series_mul(poincare, [1] * d, length)
        term = series_inverse(poincare, length - shift)
        for k, x in enumerate(term):
            total[shift + k] += (-1) ** size * x
    return series_inverse(total, length)


# ---------------------------------------------------------------------------
# Seeded random inputs.


def random_gcm(rng, n, density, deepest):
    """Rows of a random rank-n GCM from a ``random.Random``.

    Each pair i < j is bonded with probability ``density``; a bond draws
    a_ij and a_ji independently from -1 .. -``deepest``.
    """
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i][j] = -rng.randint(1, deepest)
                rows[j][i] = -rng.randint(1, deepest)
    return rows


def direct_sum(*blocks):
    """Rows of the block-diagonal matrix with the given square blocks."""
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[offset + i][offset : offset + len(row)] = row
        offset += len(block)
    return rows


def permuted(rows, perm):
    """Rows of the same matrix with index k renamed perm[k]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


def kernel_gcms(seed):
    """Seeded matrices that exercise the simple-reflection kernel.

    Random GCMs of rank 2-9 whose bonds are mostly non-symmetric, direct
    sums with finite parts, and a permuted copy of each direct sum.
    """
    rng = random.Random(seed)
    out = [random_gcm(rng, n, density=0.5, deepest=3) for n in range(2, 10) for _ in range(2)]
    a3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    b2, g2 = [[2, -2], [-1, 2]], [[2, -1], [-3, 2]]
    sums = [
        direct_sum(a3, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]),
        direct_sum(b2, random_gcm(rng, 3, density=0.8, deepest=2)),
        direct_sum(g2, [[2]], [[2, -3], [-2, 2]]),
    ]
    for rows in sums:
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        out += [rows, permuted(rows, perm)]
    return out


# ---------------------------------------------------------------------------
# Canonical keys for memoising finiteness checks across isomorphic diagrams.


def coxeter_key(gcm):
    """Permutation-canonical form of the bond-order matrix (inf -> -1)."""
    n = len(gcm)
    orders = [
        [
            -1
            if i != j and bond_order(gcm[i][j], gcm[j][i]) == math.inf
            else (1 if i == j else int(bond_order(gcm[i][j], gcm[j][i])))
            for j in range(n)
        ]
        for i in range(n)
    ]
    best = None
    for perm in itertools.permutations(range(n)):
        flat = tuple(orders[perm[r]][perm[c]] for r in range(n) for c in range(n))
        if best is None or flat < best:
            best = flat
    return (n, best)


# ---------------------------------------------------------------------------
# The JSON data of a `km` envelope, as a copy the standard encoder can take.


def wire(value):
    """Convert library data to JSON data, recursively and by type alone.

    Frozensets (0-based index sets) become sorted 1-based lists and Weyl
    elements become their 1-based canonical words.  Records become dicts of
    their ``_fields``, tuples become lists and ``math.inf`` becomes None.
    ``json.dumps(wire(v), indent=2, sort_keys=True)`` is the text `km`
    prints for ``v``.  A Weyl element is known by its class name, so that
    nothing here imports the package.
    """
    kind = type(value)
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is frozenset:
        return sorted(i + 1 for i in value)
    if kind is tuple or kind is list:
        return [wire(v) for v in value]
    if kind is dict:
        return {k: wire(v) for k, v in value.items()}
    fields = getattr(kind, "_fields", None)
    if fields is not None:
        return {f: wire(getattr(value, f)) for f in fields}
    if value == math.inf:
        return None
    if kind.__name__ == "WeylElement":
        return [k + 1 for k in value.word]
    raise TypeError(f"no wire form for {kind.__name__}")


# ---------------------------------------------------------------------------
# The command line, read by argparse.


def argparse_parser(commands):
    """The argparse tree of a `km` command table: one subparser a command,
    under a subparser of its group when its name has a dash ("weyl-word"
    is ``km weyl word``).  ``commands`` are rows with ``name``, ``help``,
    ``options`` ((flag, ``add_argument`` keywords) pairs) and
    ``reads_gcm``; the table is passed in, so that nothing here imports
    the package.  Parsing sets ``spec`` to the row of the command named.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="km")
    parser.add_argument("--version", action="version", version="km")
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for command in commands:
        group, _, leaf = command.name.rpartition("-")
        if group not in subparsers:
            parent = subparsers[""].add_parser(group)
            subparsers[group] = parent.add_subparsers(dest=f"{group}_command", required=True)
        p = subparsers[group].add_parser(leaf, help=command.help)
        if command.reads_gcm:
            p.add_argument("gcm")
        for flag, options in command.options:
            p.add_argument(flag, **options)
        p.set_defaults(spec=command)
    return parser


if __name__ == "__main__":
    import doctest

    doctest.testmod(verbose=False)
    print("oracles self-check OK")
