"""Seeded request generators for the three benchmark workloads.

Every request is a `heunforge` argv list. Parameters are small-denominator
rationals written as `p/q` literals, so one request parses identically in
the exact and the float backend. Draw ranges and margins follow the
acceptance suite (`_random_heun` / `_random_che` in tests/test_acceptance.py).

Requests come in blocks. A block covers its strata evenly (every class and
degree for the solve workloads, every equation kind for classify) and is
shuffled. A measured run serves a fixed pool of whole blocks (`pool`), the
same for every seed; the seed sets only the order they are sent in
(`ordered`). So every run does the same work and meets the same failures,
and runs differ only by the noise of the machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from polys import branch_lhs, padd, pmul, pscale

HEUN_LABELS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII")
CHE_LABELS = ("1", "2", "3", "4", "5", "6", "7", "8")
DEGREES = tuple(range(1, 13))
BACKENDS = ("exact", "float")
PLANTED_SHAPES = ("cube", "square-linear", "square")

# per classify block and backend: equations of each kind.
# A square-linear equation costs 70-600 ms against about 50 ms for the
# other kinds, so one per block keeps a handful of slow draws from setting
# a run's timing.
FAMILY_PER_BLOCK = 2
PLANTED_PER_BLOCK = {"cube": 2, "square-linear": 1, "square": 2}


@dataclass(frozen=True)
class Request:
    """One CLI call plus what the checker needs to judge its output."""

    argv: tuple
    kind: str  # classify-family | classify-planted | solve | app
    backend: str
    label: str = ""  # class label, equation kind, or app name
    n: int = -1  # degree (solve) or level (app); -1 when not applicable
    expect: dict = field(default_factory=dict, compare=False)


# -- rationals and polynomials --------------------------------------------------


def _rational(rng: random.Random, lo: float, hi: float) -> Fraction:
    den = rng.randint(2, 12)
    return Fraction(round(rng.uniform(lo, hi) * den), den)


def _lit(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else "%d/%d" % (
        value.numerator, value.denominator)


def _ptext(p) -> str:
    """Coefficient list (lowest degree first) as parse_poly text."""
    terms = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        mono = "" if k == 0 else "z" if k == 1 else "z^%d" % k
        terms.append(_lit(c) + ("*" + mono if mono else ""))
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _lin(root):
    return [-root, Fraction(1)]


# -- classify equations ---------------------------------------------------------


MARGIN = Fraction(8, 100)


def _fractional(*values) -> bool:
    """True when no value is an integer. An integer exponent parameter
    makes two local exponents differ by an integer, an indicial collision
    the program rejects as a usage error; float draws never hit one, so
    rational draws exclude them."""
    return all(v.denominator != 1 for v in values)


def _heun_draw(rng):
    """(a, q, alpha, beta, gamma, delta, epsilon) with the acceptance-suite
    ranges and margins, as rationals."""
    while True:
        a = _rational(rng, 1.4, 3.2)
        gamma, delta = _rational(rng, 0.25, 1.8), _rational(rng, 0.25, 1.8)
        alpha, beta = _rational(rng, 0.3, 1.6), _rational(rng, 0.3, 1.6)
        epsilon = alpha + beta - gamma - delta + 1
        q = _rational(rng, -1.2, 1.2)
        if min(abs(1 - gamma), abs(1 - delta), abs(1 - epsilon),
               abs(epsilon)) >= MARGIN and _fractional(gamma, delta, epsilon):
            return a, q, alpha, beta, gamma, delta, epsilon


def _che_draw(rng):
    """(alpha, beta, gamma, mu, nu) as rationals."""
    while True:
        alpha = _rational(rng, 0.4, 2.2)
        beta, gamma = _rational(rng, 0.2, 1.6), _rational(rng, 0.2, 1.6)
        mu, nu = _rational(rng, -1.0, 1.0), _rational(rng, -1.0, 1.0)
        if min(abs(alpha), abs(beta), abs(gamma)) >= MARGIN and _fractional(
                beta, gamma):
            return alpha, beta, gamma, mu, nu


def heun_equation(rng):
    """(tau~, sigma, sigma~) of a random four-point-family equation."""
    a, q, alpha, beta, gamma, delta, epsilon = _heun_draw(rng)
    z0, z1, za = _lin(Fraction(0)), _lin(Fraction(1)), _lin(a)
    sigma = pmul(pmul(z0, z1), za)
    tau = padd(padd(pscale(pmul(z1, za), gamma), pscale(pmul(z0, za), delta)),
                pscale(pmul(z0, z1), epsilon))
    sigma_tilde = pmul([-q, alpha * beta], sigma)
    return tau, sigma, sigma_tilde


def che_equation(rng):
    """(tau~, sigma, sigma~) of a random confluent-family equation."""
    alpha, beta, gamma, mu, nu = _che_draw(rng)
    z0, z1 = _lin(Fraction(0)), _lin(Fraction(1))
    sigma = pmul(z0, z1)
    tau = padd(padd(pscale(sigma, alpha), pscale(z1, beta + 1)),
                pscale(z0, gamma + 1))
    sigma_tilde = pmul([-mu, mu + nu], sigma)
    return tau, sigma, sigma_tilde


def planted_equation(rng, shape: str):
    """(tau~, sigma, sigma~, pi0) with repeated-root sigma and a branch
    planted by construction: sigma~ = g0 sigma - pi0^2 - pi0 (tau~ - sigma'),
    so that pi0^2 + pi0 (tau~ - sigma') + sigma~ = g0 sigma holds exactly."""
    c = _rational(rng, -1.5, 1.5)
    if shape == "cube":
        sigma = pmul(pmul(_lin(c), _lin(c)), _lin(c))
    elif shape == "square-linear":
        while True:
            d = _rational(rng, -1.5, 1.5)
            if abs(d - c) >= Fraction(1, 2):
                break
        sigma = pmul(pmul(_lin(c), _lin(c)), _lin(d))
    elif shape == "square":
        sigma = pmul(_lin(c), _lin(c))
    else:
        raise ValueError("unknown planted shape %r" % (shape,))
    tau = [_rational(rng, -2.0, 2.0) for _ in range(3)]
    pi0 = [_rational(rng, -2.0, 2.0) for _ in range(3)]
    g0 = [_rational(rng, -2.0, 2.0) for _ in range(2)]
    sigma_tilde = padd(pmul(g0, sigma), pscale(branch_lhs(pi0, tau, sigma, [0]), -1))
    while len(sigma_tilde) > 1 and sigma_tilde[-1] == 0:
        sigma_tilde.pop()
    return tau, sigma, sigma_tilde, pi0


def _classify_argv(tau, sigma, sigma_tilde, backend):
    return ("classify", "--sigma=" + _ptext(sigma), "--tau=" + _ptext(tau),
            "--sigma-tilde=" + _ptext(sigma_tilde), "--backend", backend,
            "--format", "json")


def classify_block(rng):
    """One shuffled block: per backend, FAMILY_PER_BLOCK equations of each
    family and PLANTED_PER_BLOCK[shape] of each repeated-root shape: 18
    requests. Each request gets its own equation; the same equation in
    both backends would cost about the same twice and add no information
    about how cost spreads over equations."""
    out = []
    for backend in BACKENDS:
        for family, make in (("heun", heun_equation), ("che", che_equation)):
            for _ in range(FAMILY_PER_BLOCK):
                tau, sigma, sigma_tilde = make(rng)
                expect = {"tau": tau, "sigma": sigma, "sigma_tilde": sigma_tilde}
                out.append(Request(_classify_argv(tau, sigma, sigma_tilde, backend),
                                   "classify-family", backend, family, -1, expect))
        for shape in PLANTED_SHAPES:
            for _ in range(PLANTED_PER_BLOCK[shape]):
                tau, sigma, sigma_tilde, pi0 = planted_equation(rng, shape)
                expect = {"tau": tau, "sigma": sigma, "sigma_tilde": sigma_tilde,
                          "pi0": pi0}
                out.append(Request(_classify_argv(tau, sigma, sigma_tilde, backend),
                                   "classify-planted", backend, shape, -1, expect))
    rng.shuffle(out)
    return out


# A four-point equation (a = 29/11, q = -4/9) on which the seed's exact
# backend raised BackendMismatchError out of cli.main; about one random
# draw in 80 does. Every classify pool serves it in the exact backend, so
# the crash shows in every run, not only when a pool happens to draw one.
RECORDED_CRASH = {
    "tau": [Fraction(145, 88), Fraction(-25847, 4840), Fraction(14, 5)],
    "sigma": [Fraction(0), Fraction(29, 11), Fraction(-40, 11), Fraction(1)],
    "sigma_tilde": [Fraction(0), Fraction(116, 99), Fraction(244, 495),
                    Fraction(-244, 99), Fraction(4, 5)],
}


def recorded_crash_request():
    eq = RECORDED_CRASH
    return Request(_classify_argv(eq["tau"], eq["sigma"], eq["sigma_tilde"], "exact"),
                   "classify-family", "exact", "heun", -1, dict(eq))


# -- solve and app requests -----------------------------------------------------


def _solve_argv(family, label, n, rng):
    if family == "heun":
        a, _, _, _, gamma, delta, epsilon = _heun_draw(rng)
        params = (("a", a), ("gamma", gamma), ("delta", delta),
                  ("epsilon", epsilon))
    else:
        alpha, beta, gamma, _, _ = _che_draw(rng)
        params = (("alpha", alpha), ("beta", beta), ("gamma", gamma))
    # "--name=value" keeps a negative literal from reading as an option
    return ("solve", family, "--class", label, "-n", str(n)) + tuple(
        "--%s=%s" % (name, _lit(value)) for name, value in params)


def solve_block(rng, backend):
    """Every (class, degree) pair of both families once, fresh parameters
    each, shuffled: 2 x 8 x 12 = 192 requests."""
    out = []
    for family, labels in (("heun", HEUN_LABELS), ("che", CHE_LABELS)):
        for label in labels:
            for n in DEGREES:
                argv = _solve_argv(family, label, n, rng) + (
                    "--backend", backend, "--format", "json")
                out.append(Request(argv, "solve", backend,
                                   "%s/%s" % (family, label), n))
    rng.shuffle(out)
    return out


def app_block(rng):
    """electrons-sphere n=1..10, double-well N=0..10 in both parities and a
    six-point coulomb3s grid: 38 requests."""
    grid = (0.5, 1.0, 2.0, 3.0)
    out = []
    for n in range(1, 11):
        argv = ("electrons-sphere", "--n", str(n), "--gamma", str(rng.choice(grid)),
                "--delta", str(rng.choice(grid)))
        out.append(("electrons-sphere", n, argv))
    for parity in ("symmetric", "antisymmetric"):
        for level in range(11):
            argv = ("double-well", "--n", str(level),
                    "--d", str(rng.choice((0.5, 1.0, 2.0))),
                    "--u0", str(rng.choice((25.0, 100.0, 400.0))),
                    "--parity", parity)
            out.append(("double-well", level, argv))
    for n in range(6):
        argv = ("coulomb3s", "--n", str(n), "--m", str(rng.randint(0, 3)),
                "--gamma", str(rng.choice((0.0, 0.5, 2.0))))
        out.append(("coulomb3s", n, argv))
    return [Request(("app",) + argv + ("--format", "json"), "app", "float", name, n)
            for name, n, argv in out]


def _merge(solves, apps, rng):
    """Insert apps at random positions; the solve order is unchanged, so
    eigen-float and eigen-exact send their solves in the same order."""
    out = list(solves)
    for req in apps:
        out.insert(rng.randint(0, len(out)), req)
    return out


WORKLOADS = ("classify", "eigen-float", "eigen-exact")


def blocks(workload: str, seed: int | str):
    """Endless stream of request blocks of a workload, fully determined
    by seed."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    solve_rng = random.Random("%s/solve" % seed)
    app_rng = random.Random("%s/app" % seed)
    classify_rng = random.Random("%s/classify" % seed)
    while True:
        if workload == "classify":
            yield classify_block(classify_rng)
        elif workload == "eigen-float":
            yield _merge(solve_block(solve_rng, "float"), app_block(app_rng),
                         app_rng)
        else:
            yield solve_block(solve_rng, "exact")


# wall seconds one block takes at the seed, checks included, on a 2-core
# x86_64 VM; they size the pool so a run lasts about --seconds
BLOCK_SECONDS = {"classify": 1.1, "eigen-float": 3.8, "eigen-exact": 8.9}
POOL_SEED = "pool"


def pool(workload: str, seconds: float):
    """The blocks a run of `seconds` serves: as many as the seed serves in
    about that time, drawn from POOL_SEED, so the same for every run. A
    classify pool ends with a block holding the recorded crash."""
    count = max(1, round(seconds / BLOCK_SECONDS[workload]))
    out = list(islice(blocks(workload, POOL_SEED), count))
    if workload == "classify":
        out.append([recorded_crash_request()])
    return out


def ordered(pool_blocks, seed: int):
    """The requests of `pool_blocks`, block order and the order inside
    each block shuffled by seed."""
    rng = random.Random("%s/order" % seed)
    out = [list(block) for block in pool_blocks]
    rng.shuffle(out)
    for block in out:
        rng.shuffle(block)
    return [request for block in out for request in block]


def requests(workload: str, seed: int | str):
    """Endless request stream of a workload, fully determined by seed."""
    for block in blocks(workload, seed):
        yield from block
