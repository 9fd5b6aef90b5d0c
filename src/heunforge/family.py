"""The class-solve pipeline both Heun families share.

Both put a class-fixed coupling kappa and the accessory value t into
sigma~ = (kappa z - t) sigma: kappa = alpha*beta and t = q in heun.py,
kappa = mu + nu and t = mu in che.py. A family's params record, a
namedtuple on FamilyParams, supplies `CLASSES` (its class table),
`coupling`, `coupling_name`, `accessory`, `relation_refs` (the values
that scale the class relation in floats), `at(t)`, `to_nu()` and, where
the state at t has a kappa of its own, `coupling_with(t)`; the base gives it
`to_float()`, the record in complex floats. Its classes, namedtuples
on FamilyClass, supply `parts(p)` (the family's pi parts) and
`coupling_at(p, n)`, the kappa of degree-n solutions. The pipeline
takes (p, label, ...) and no verification setting: every state's
residual is on oracle's one contour. t moves no class branch (class_setup).
"""

from __future__ import annotations

import cmath

from .engine import BranchSetup, NoBranchError, NuEquation
from .oracle import record, termination_solve
from .poly import _ONE, _ZERO, Poly, _sum
from .scalars import EXACT, as_scalar, infer_backend, negligible

RELATION_TOL = 1e-8


class FamilyParams:
    """The base of a params record, before its record() base: its fields
    in the one backend they infer, and in its __dict__ that backend as
    `backend`, class_setup's by label in `_setups` and kept_factors' in
    `_factors`."""

    def __new__(cls, *args, **kwargs):
        fields = super().__new__(cls, *args, **kwargs)  # args bound to fields
        backend = infer_backend(fields)
        self = tuple.__new__(cls, [as_scalar(value, backend) for value in fields])
        vars(self).update(backend=backend, _setups={})
        return self

    def coupling_with(self, t):
        """kappa of the state at accessory value t: the record's own."""
        return self.coupling

    def to_float(self):
        """The record in complex floats, validated by its own constructor."""
        return type(self)(*map(complex, self))


class FamilyClass(record("FamilyClass", "label flags")):
    """flags mark which of its family's pi parts the class pi sums."""

    __slots__ = ()

    def pi(self, p) -> Poly:
        return flagged_sum(self.flags, self.parts(p))


def kept_factors(p, build):
    """build(p), the Polys p's NU map and class pi parts share, kept in p's
    __dict__ on first use: once per record, or per family match."""
    if "_factors" not in vars(p):
        vars(p)["_factors"] = build(p)
    return p._factors


def find_class(classes, label):
    """The class with this label, matched as upper-case text."""
    key = str(label).upper()
    for cls in classes:
        if cls.label == key:
            return cls
    raise ValueError(
        "unknown class %r; expected one of %s"
        % (label, ", ".join(c.label for c in classes))
    )


def flagged_sum(flags, parts) -> Poly:
    """The sum, in order and from zero, of the parts whose flag is set:
    a class pi from its family's pi parts."""
    return sum((part for flag, part in zip(flags, parts) if flag), Poly.zero(parts[0].backend))


def class_catalog(p):
    """(label, float coefficients of the class pi) of every class in
    p.CLASSES, from one build of the family's pi parts. Float, as an
    exact equation can keep a float branch where no exact one exists."""
    parts = p.CLASSES[0].parts(p)
    return [(cls.label, flagged_sum(cls.flags, parts).to_float().coeffs)
            for cls in p.CLASSES]


def factors_through_sigma(eq: NuEquation) -> bool:
    """Whether sigma~ / sigma is exact and affine: sigma~ = (kappa z - t) sigma."""
    quot, rem = eq.sigma_tilde.divrem(eq.sigma)
    return rem.negligible(1e-10, eq.sigma_tilde) and quot.degree <= 1


def sigma_tilde(sigma: Poly, coupling, accessory, backend) -> Poly:
    """(kappa z - t) sigma, kappa z - t summed on coefficient lists as the
    Poly form sums it but untrimmed first: that moves only the sign of a
    zero part, which the product with sigma, summed from +0, clears."""
    coupling = as_scalar(coupling, backend)
    line = _sum([_ZERO[backend] * coupling, _ONE[backend] * coupling],
                [-as_scalar(accessory, backend)], backend)
    return Poly._make(line, backend) * sigma


def class_relation(p, label, n: int):
    """Residual of the class condition on p's coupling at degree n
    (alpha*beta of HeunParams, mu + nu of CheParams); zero exactly when
    degree-n polynomial solutions are admissible."""
    return p.coupling - find_class(p.CLASSES, label).coupling_at(p, n)


def check_relation(p, label, n: int):
    gap = class_relation(p, label, n)
    if isinstance(gap, complex) and not cmath.isfinite(gap):
        raise OverflowError("class relation overflows the float range")
    if not negligible(gap, RELATION_TOL, *p.relation_refs):
        raise NoBranchError(
            "class %s does not admit degree-%d solutions at these "
            "parameters (%s off by %s)" % (label, n, p.coupling_name, gap)
        )


def class_setup(p, label) -> BranchSetup:
    """The BranchSetup of the class pi on the class equation at t = 0, built
    once per record and class and kept on the record: found by identity,
    since records that are == can differ in a signed zero."""
    cls = find_class(p.CLASSES, label)
    setup = p._setups.get(cls.label)
    if setup is None:
        p0 = p.at(as_scalar(0, p.backend))
        setup = p._setups[cls.label] = BranchSetup(p0.to_nu(), cls.pi(p0))
    return setup


def accessory(p, label, n: int):
    """Accessory values of degree-n class solutions: the validated
    eigenvalues of the class equation's degree-n coefficient map."""
    check_relation(p, label, n)
    return termination_solve(class_setup(p, label).family, n)


def states(p, label, n: int, values):
    """Degree-n eigenstates of the class on p's class_setup, one per
    accessory value t in `values` (refused where p.at(t) would refuse it),
    each with p.coupling_with(t) as kappa and its residual on oracle's one
    contour. An exact p given a float value runs all values on p.to_float()."""
    if p.backend == EXACT and any(isinstance(t, (float, complex)) for t in values):
        p = p.to_float()
    values = [as_scalar(t, infer_backend((p.accessory, t))) for t in values]
    return _states(p, label, n, [(t, p.coupling_with(t)) for t in values])


def _states(p, label, n: int, pairs):
    """states, one per (t, kappa) pair in `pairs`."""
    if not pairs:
        return []
    check_relation(p, label, n)
    setup = class_setup(p, label)
    shifts = ((t, sigma_tilde(setup.eq.sigma, kappa, t, p.backend)) for t, kappa in pairs)
    return setup.states(n, shifts)
