"""Verdict layer: ends, local indecomposability over F_q, and structure
reports for the completed group attached to a GCM over a finite field.

Everything group-theoretic in the reports is static text gated on computed
combinatorial predicates; only the combinatorics is computed here.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from . import BadInputError
from .coxeter import (
    coxeter_matrix,
    graph_strong_connectivity,
    nerve_strong_connectivity,
)
from .gcm import GeneralizedCartanMatrix, classify, scalars


class NotPrimePowerError(BadInputError):
    def __init__(self, q: int):
        self.q = q
        super().__init__(f"{q} is not a prime power")


# Strong Miller-Rabin to these 13 bases proves n prime below _PSI_13, the
# least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


def _passes_bases(n: int) -> bool:
    """Whether n >= 2 is a strong probable prime to every base in ``_BASES``:
    False proves n composite, True proves n prime below ``_PSI_13``."""
    if any(n % a == 0 for a in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    return all(  # a^d = 1, or a^(d 2^k) = -1 for some k < s
        (x := pow(a, d, n)) == 1
        or n - 1 in accumulate(range(s - 1), lambda y, _: y * y % n, initial=x)
        for a in _BASES
    )


def _exact_root(q: int, e: int) -> int | None:
    """The integer r with r^e = q, or None; Newton's method on integers."""
    r = 1 << -(-q.bit_length() // e)  # at least the root
    while (smaller := ((e - 1) * r + q // r ** (e - 1)) // e) < r:
        r = smaller
    return r if r**e == q else None


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, p prime, e >= 1, in time polynomial in the digits.

    q = p^e is an e'-th power only when e' divides e, and any other q has
    composite roots only, so the exact root at the largest exponent decides.

    >>> prime_power(8)
    (2, 3)
    >>> prime_power(7)
    (7, 1)
    """
    if q < 2:
        raise NotPrimePowerError(q)
    e, p = next((e, r) for e in range(q.bit_length(), 0, -1)
                if (r := _exact_root(q, e)) is not None)
    if not _passes_bases(p):
        raise NotPrimePowerError(q)
    if p >= _PSI_13:
        raise BadInputError(f"cannot decide whether {q} is a prime power: "
                            f"{p} is too large to prove prime")
    return p, e


EndsVerdict = namedtuple("EndsVerdict", "weyl_infinite one_ended graph_strongly_connected "
                         "nerve_strongly_connected nerve_agreement witness")
EndsVerdict.__doc__ = """Number-of-ends facts derived from the diagram.

``witness`` is None when one-ended or when the Weyl group is finite;
the empty frozenset means the finite-order graph is disconnected;
otherwise it is a spherical subset whose removal disconnects the rest.

Fields: ``witness``: frozenset[int] | None; the others: bool.
"""


def ends_verdict(gcm: GeneralizedCartanMatrix) -> EndsVerdict:
    diagram = coxeter_matrix(gcm)
    weyl_infinite = not classify(gcm).all_finite
    graph_result = graph_strong_connectivity(diagram)
    nerve_result = nerve_strong_connectivity(diagram.nerve())
    one_ended = weyl_infinite and graph_result.strongly_connected
    witness = None
    if weyl_infinite and not graph_result.strongly_connected:
        witness = graph_result.failing_subset
    return EndsVerdict(
        weyl_infinite=weyl_infinite,
        one_ended=one_ended,
        graph_strongly_connected=graph_result.strongly_connected,
        nerve_strongly_connected=nerve_result.strongly_connected,
        nerve_agreement=(
            graph_result.strongly_connected == nerve_result.strongly_connected
        ),
        witness=witness,
    )


CriterionFailure = namedtuple("CriterionFailure", "criterion failed")
CriterionFailure.__doc__ = """Why one sufficient criterion did not apply.

Fields: ``criterion``: str, one of "criterion_i", "criterion_ii" and
"applicability"; ``failed``: tuple[str, ...].
"""


IndecomposabilityVerdict = namedtuple(
    "IndecomposabilityVerdict", "q p exponent applicable outcome by reasons checklist")
IndecomposabilityVerdict.__doc__ = """Local indecomposability of the completed group over F_q.

``outcome`` is "locally_indecomposable" or "inconclusive"; when
decomposable-proof criteria apply, ``by`` names the route
("finite_type", "criterion_i", "criterion_ii").  Inconclusive verdicts
carry one failure record per criterion.  The checklist lists every
hypothesis that was computed, for transparency.

Fields: ``q``, ``p``, ``exponent``: int; ``applicable``: bool;
``outcome``: str; ``by``: str | None; ``reasons``:
tuple[CriterionFailure, ...]; ``checklist``: dict[str, bool].
"""


def indecomposability_verdict(
    gcm: GeneralizedCartanMatrix, q: int
) -> IndecomposabilityVerdict:
    """Decide local indecomposability by the two sufficient criteria.

    Criterion I: the Weyl group is infinite and one-ended and p exceeds the
    largest |a_ij|.  Criterion II: the matrix is 2-spherical, with q >= 3
    required when max |a_ij| = 2 and q >= 4 when max |a_ij| = 3 (no bound
    when max |a_ij| <= 1).  Finite type is decided first and reported on its
    own.  Anything else is inconclusive, never a disproof.
    """
    p, e = prime_power(q)
    verdict = classify(gcm)
    sc = scalars(gcm)
    # ends_verdict's one_ended without the nerve; finite types enumerate nothing
    one_ended = (not verdict.all_finite
                 and graph_strong_connectivity(coxeter_matrix(gcm)).strongly_connected)
    m = sc.max_abs_offdiag
    q_bound_ok = m <= 1 or (m == 2 and q >= 3) or (m == 3 and q >= 4)
    # each sufficient criterion with its hypotheses, tried in this order
    criteria = {
        "criterion_i": {"one_ended": one_ended, "p_gt_max_abs_offdiag": p > m},
        "criterion_ii": {"two_spherical": sc.two_spherical, "q_bound_ok": q_bound_ok},
    }
    checklist = {"indecomposable": verdict.indecomposable,
                 "finite_type": verdict.all_finite}
    for hypotheses in criteria.values():
        checklist |= hypotheses
    def result(outcome, by, reasons, applicable=True):
        return IndecomposabilityVerdict(
            q=q, p=p, exponent=e, applicable=applicable, outcome=outcome,
            by=by, reasons=tuple(reasons), checklist=checklist,
        )

    if not verdict.indecomposable:
        return result(
            "inconclusive",
            None,
            [CriterionFailure("applicability", ("indecomposable",))],
            applicable=False,
        )
    if verdict.all_finite:
        return result("locally_indecomposable", "finite_type", [])
    for name, hypotheses in criteria.items():
        if all(hypotheses.values()):
            return result("locally_indecomposable", name, [])
    return result("inconclusive", None, [
        CriterionFailure(name, tuple(h for h, ok in hypotheses.items() if not ok))
        for name, hypotheses in criteria.items()
    ])


OpenSubgroupClass = namedtuple("OpenSubgroupClass", "set class_label representative description")
OpenSubgroupClass.__doc__ = """One commensurability class of open subgroups.

Fields: ``set``: frozenset[int], the essential set; the others: str.
"""


OpenSubgroupReport = namedtuple("OpenSubgroupReport", "classes hasse semantics")
OpenSubgroupReport.__doc__ = """Commensurability classes of open subgroups, as a rendered poset.

The fields are the wire's: `km poset` prints the record as it is.

Fields: ``classes``: tuple[OpenSubgroupClass, ...], one per element of
the essential poset, in its order; ``hasse``: tuple[tuple[int, int],
...], the poset's cover pairs as indices into ``classes``;
``semantics``: tuple[str, ...].
"""


_OPEN_SEMANTICS = (
    "Every open subgroup is commensurable with a conjugate of exactly one "
    "standard parabolic P_J with J essential; the map to essential subsets "
    "is an order isomorphism onto subsets ordered by inclusion.",
    "Two classes are equal exactly when some conjugate of a member of one is "
    "commensurable with a member of the other.",
    "One class lies strictly below another exactly when some conjugate of a "
    "member embeds with infinite index in a member of the larger class.",
)


# the classes of B (J empty) and of G (J every generator)
_OPEN_DESCRIPTIONS = {
    "B": "compact open subgroups",
    "G": "open subgroups of finite index in G",
}


def open_subgroup_report(gcm: GeneralizedCartanMatrix) -> OpenSubgroupReport:
    from .parabolics import EssentialPoset

    diagram = coxeter_matrix(gcm)
    poset = EssentialPoset.build(diagram)
    subsets = poset.elements
    labels = list(map(diagram.label_set, subsets))
    names = list(map(diagram.parabolic_name, subsets, labels))
    classes = map(
        OpenSubgroupClass,
        subsets,
        [f"[W_{label}]" for label in labels],
        names,
        [_OPEN_DESCRIPTIONS.get(name)
         or "open subgroups commensurable with a conjugate of " + name for name in names],
    )
    return OpenSubgroupReport(
        classes=tuple(classes), hasse=poset.hasse, semantics=_OPEN_SEMANTICS
    )


SandwichRecord = namedtuple(
    "SandwichRecord",
    "essential spherical_extra union parabolic statement refined_lower_bound")
SandwichRecord.__doc__ = """One sandwich P- <= gHg^{-1} <= P for locally normal subgroups.

Fields: ``essential``, ``spherical_extra``, ``union``: frozenset[int];
the others: str.
"""


StructureReport = namedtuple("StructureReport", "sandwiches compact_or_open symbols")
StructureReport.__doc__ = """Locally normal subgroup structure, rendered as checkable text.

Fields: ``sandwiches``: tuple[SandwichRecord, ...]; ``compact_or_open``:
bool; ``symbols``: dict[str, str].
"""


_SYMBOLS = {
    "Res(O)": "intersection of all open normal subgroups of the open subgroup O",
    "L+_J": "closure of the subgroup generated by the root subgroups whose "
    "roots are supported in J",
    "U_X": "closure of the normal closure, inside the maximal positive "
    "unipotent subgroup, of the root subgroups attached to positive real "
    "roots not supported in X",
    "G-dagger": "closed subgroup generated by the closures of all "
    "contraction groups of group elements",
}


def locally_normal_report(gcm: GeneralizedCartanMatrix) -> StructureReport:
    """Sandwich every noncompact closed locally normal subgroup between the
    residual and the full parabolic of an essential-plus-orthogonal subset.

    One record is emitted per pair (J nonempty essential, J' spherical subset
    of the perp of J); the lower bound refines to L+_J times U over the
    perp-closure of J.
    """
    from .parabolics import essential_subsets

    diagram = coxeter_matrix(gcm)
    records = []
    compact_or_open = True
    for subset in essential_subsets(diagram)[1:]:
        perp = diagram.perp(subset)
        j_name = perp_closure = diagram.label_set(subset)
        extras = ()
        if perp:  # else W_perp is trivial, and J' is only the empty set
            compact_or_open = compact_or_open and diagram.is_spherical(perp)
            perp_closure = diagram.label_set(subset | perp)
            extras = diagram.spherical_subsets(perp)
        for extra in (frozenset(), *extras):
            union = subset | extra
            name = diagram.parabolic_name(
                union, diagram.label_set(union) if extra else j_name)
            records.append(
                SandwichRecord(
                    essential=subset,
                    spherical_extra=extra,
                    union=union,
                    parabolic=name,
                    statement=(
                        f"some conjugate gHg^-1 satisfies "
                        f"Res({name}) <= gHg^-1 <= {name}"
                    ),
                    refined_lower_bound=(
                        f"L+_{j_name} U_{perp_closure} <= Res({name})"
                    ),
                )
            )
    return StructureReport(
        sandwiches=tuple(records),
        compact_or_open=compact_or_open,
        symbols=dict(_SYMBOLS),
    )
