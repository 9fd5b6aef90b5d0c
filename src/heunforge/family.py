"""The class-solve pipeline both Heun families share.

Both put a class-fixed coupling kappa and the accessory value t into
sigma~ = (kappa z - t) sigma: kappa = alpha*beta and t = q in heun.py,
kappa = mu + nu and t = mu in che.py. A params record supplies `backend`,
`coupling`, `accessory`, `at(t)`, `to_nu()`, `relation_scale` (the float
scale of the class relation), `coupling_name` and `_setups` (a dict for
class_setup); a class supplies `label`, `flags`, `parts(p)`, `pi(p)`
(flagged_sum of its flags over its parts) and `coupling_at(p, n)`, the
kappa of degree-n solutions. t moves no class branch (class_setup).
"""

from __future__ import annotations

import cmath

from .engine import BranchSetup, NoBranchError
from .oracle import OdeFamily, termination_solve
from .poly import Poly
from .scalars import as_scalar, infer_backend, negligible

RELATION_TOL = 1e-8


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


def sigma_tilde(sigma: Poly, coupling, accessory, backend) -> Poly:
    return (Poly.x(backend) * coupling - Poly.constant(accessory, backend)) * sigma


def class_relation(classes, p, label, n: int):
    """Residual of the class condition on the coupling at degree n; zero
    exactly when degree-n polynomial solutions are admissible."""
    return p.coupling - find_class(classes, label).coupling_at(p, n)


def check_relation(classes, p, label, n: int):
    gap = class_relation(classes, p, label, n)
    if isinstance(gap, complex) and not cmath.isfinite(gap):
        raise OverflowError("class relation overflows the float range")
    if not negligible(gap, RELATION_TOL * p.relation_scale):
        raise NoBranchError(
            "class %s does not admit degree-%d solutions at these "
            "parameters (%s off by %s)" % (label, n, p.coupling_name, gap)
        )


def accessory_family(eq0, pi: Poly) -> OdeFamily:
    """The reduced equation for y on the branch with this pi, as a family
    in t: eq0 is the equation at t = 0, and t enters sigma~ as -t sigma."""
    return BranchSetup(eq0, pi).family


def class_setup(classes, p, label) -> BranchSetup:
    """The BranchSetup of the class pi on the class equation at t = 0, built
    once per record and class and kept on the record: found by identity,
    since records that are == can differ in a signed zero."""
    cls = find_class(classes, label)
    setup = p._setups.get(cls.label)
    if setup is None:
        p0 = p.at(as_scalar(0, p.backend))
        setup = p._setups[cls.label] = BranchSetup(p0.to_nu(), cls.pi(p0))
    return setup


def accessory(classes, p, label, n: int):
    """Accessory values of degree-n class solutions: the validated
    eigenvalues of the class equation's degree-n coefficient map."""
    check_relation(classes, p, label, n)
    return termination_solve(class_setup(classes, p, label).family, n)


def states(classes, p, label, n: int, values, coupling, samples=50):
    """Degree-n eigenstates of the class on p's class_setup, one per
    accessory value t in `values` (refused where p.at(t) would refuse it),
    each with coupling(t) as kappa."""
    values = [as_scalar(t, infer_backend((p.accessory, t))) for t in values]
    if not values:
        return []
    check_relation(classes, p, label, n)
    setup = class_setup(classes, p, label)
    shifts = ((t, sigma_tilde(setup.eq.sigma, coupling(t), t, p.backend)) for t in values)
    return setup.states(n, shifts, samples)
