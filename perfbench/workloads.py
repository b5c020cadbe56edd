"""Seeded job streams for the three benchmark workloads.

Standard library only: mvtrop receives nothing but the argv lists (or library
arguments) built here.  A workload is an endless stream of rounds.  Each round
has a fixed composition of job kinds and only the parameters inside a kind are
drawn from the seed, so two seeds load every layer in the same proportions and
the per-seed spread of the end-to-end figures stays small.  Parameters are
drawn from shuffle bags, so every value of a kind appears once before any
repeats.

A job is a JSON-ready dict.  ``verb`` names the job kind, ``argv`` is the CLI
argument list (absent for library jobs), and the remaining keys are the
mathematical specification the oracle in ``oracle.py`` works from.

Algebra specs: ``["chain", n]``, ``["prod", [spec, ...]]``, ``["interval"]``,
``["delta", group]``.  Group specs: ``["Z"]``, ``["Q"]``, ``["Zinv", m]`` for
Z[1/m].  Terms: ``["var", name]``, ``["const", 0|1]``, ``["neg", t]`` and
``[op, left, right]`` with op one of the keys of ``BINARY``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("finite-exhaustive", "infinite-fragments", "cli-oneshot")

BINARY = {"oplus": "(+)", "odot": "(.)", "ominus": "(-)", "implies": "->",
          "meet": "/\\", "join": "\\/"}

NAMES = ("x", "y", "z")


# -- terms ---------------------------------------------------------------------

def term_text(t) -> str:
    """Fully parenthesized mvtrop term syntax."""
    tag = t[0]
    if tag == "var":
        return t[1]
    if tag == "const":
        return str(t[1])
    if tag == "neg":
        return "~" + term_text(t[1])
    return f"({term_text(t[1])} {BINARY[tag]} {term_text(t[2])})"


def equation_text(lhs, rhs) -> str:
    return f"{term_text(lhs)} = {term_text(rhs)}"


def random_term(rng: random.Random, n_binary: int, names=NAMES, n_neg: int = 1):
    """A term with exactly ``n_binary`` binary connectives and ``n_neg``
    negations, in which every name occurs when there are enough leaves;
    further leaves are names or constants.  Fixed sizes keep the cost of
    evaluating two drawn terms alike."""
    leaves = [["var", name] for name in names[:n_binary + 1]]
    while len(leaves) < n_binary + 1:
        leaves.append(["const", rng.randrange(2)] if rng.random() < 0.15
                      else ["var", rng.choice(names)])
    rng.shuffle(leaves)
    negated = set(rng.sample(range(2 * n_binary + 1), n_neg))
    counter = iter(range(2 * n_binary + 1))

    def build(n):
        if n == 0:
            node = leaves.pop()
        else:
            k = rng.randrange(n)
            node = [rng.choice(tuple(BINARY)), build(k), build(n - 1 - k)]
        return ["neg", node] if next(counter) in negated else node

    return build(n_binary)


def size(t) -> int:
    """Number of nodes."""
    return 1 + sum(size(u) for u in t[1:] if isinstance(u, list))


def rewrite(rng: random.Random, t):
    """An equivalent term: MV identities applied at random nodes."""
    tag = t[0]
    if tag in ("var", "const"):
        return ["neg", ["neg", t]] if rng.random() < 0.1 else t
    if tag == "neg":
        return ["neg", rewrite(rng, t[1])]
    a, b = rewrite(rng, t[1]), rewrite(rng, t[2])
    if rng.random() < 0.5:
        return [tag, a, b]
    if tag in ("oplus", "meet", "join"):
        return [tag, b, a]
    if tag == "odot":
        return ["neg", ["oplus", ["neg", a], ["neg", b]]]
    if tag == "ominus":
        return ["odot", a, ["neg", b]]
    return ["oplus", ["neg", a], b]  # implies


def rewrite_to(rng: random.Random, t, growth: int, tries: int = 200):
    """An equivalent term with ``growth`` more nodes than ``t`` (or the closest
    found), so that equations of one kind cost alike to check."""
    best = None
    for _ in range(tries):
        u = rewrite(rng, t)
        miss = abs(size(u) - size(t) - growth)
        if best is None or miss < best[0]:
            best = (miss, u)
        if miss == 0:
            break
    return best[1]


def mutate(rng: random.Random, t):
    """The same term with one binary connective replaced by another."""
    sites = []

    def walk(u, path):
        if u[0] in BINARY:
            sites.append(path)
        for i, v in enumerate(u[1:], start=1):
            if isinstance(v, list):
                walk(v, path + (i,))

    walk(t, ())
    out = _copy(t)
    if not sites:
        return ["neg", out]
    node = out
    for i in rng.choice(sites):
        node = node[i]
    node[0] = rng.choice([op for op in BINARY if op != node[0]])
    return out


def _copy(t):
    return [_copy(u) if isinstance(u, list) else u for u in t]


# Tautology schemas of Lukasiewicz logic; A and B are replaced by random terms.
SCHEMAS = (
    ["implies", "A", ["implies", "B", "A"]],
    ["implies", ["meet", "A", "B"], "A"],
    ["implies", "A", ["join", "A", "B"]],
    ["implies", ["odot", "A", "B"], "A"],
    ["oplus", "A", ["neg", "A"]],
    ["implies", ["implies", ["implies", "A", "B"], "B"], ["implies", ["implies", "B", "A"], "A"]],
    ["implies", ["implies", ["neg", "A"], ["neg", "B"]], ["implies", "B", "A"]],
)


def instantiate(schema, a, b):
    if schema == "A":
        return _copy(a)
    if schema == "B":
        return _copy(b)
    return [schema[0]] + [instantiate(u, a, b) for u in schema[1:]]


# -- descriptors -----------------------------------------------------------------

def group_text(g) -> str:
    if g[0] == "Zinv":
        return f"Z[1/{g[1]}]"
    return g[0]


def algebra_text(a) -> str:
    kind = a[0]
    if kind == "chain":
        return f"chain:{a[1]}"
    if kind == "interval":
        return "interval"
    if kind == "delta":
        return "chang" if a[1] == ["Z"] else "delta:" + group_text(a[1])
    return "prod:" + ",".join(algebra_text(f) for f in a[1])


def chain(n):
    return ["chain", n]


def prod(*sizes):
    return ["prod", [chain(n) for n in sizes]]


CHANG = ["delta", ["Z"]]
INTERVAL = ["interval"]


def delta(m):
    return ["delta", ["Zinv", m]]


class _Bag:
    """Draws items in seeded random order, each once before any repeats."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.queue = rng, list(items), []

    def draw(self):
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


class _LogStrata:
    """Log-uniform integers in [lo, hi], stratified: the range is cut into
    ``k`` strata of equal log-width and a shuffle bag picks the stratum, so
    every window of ``k`` draws covers the whole range once."""

    def __init__(self, rng: random.Random, lo: int, hi: int, k: int = 8):
        self.rng, self.lo, self.width = rng, math.log(lo), (math.log(hi) - math.log(lo)) / k
        self.bag = _Bag(rng, range(k))

    def draw(self) -> int:
        i = self.bag.draw()
        a = self.lo + i * self.width
        return int(round(math.exp(self.rng.uniform(a, a + self.width))))


# -- job constructors ---------------------------------------------------------------

def cli_job(verb, *args, **spec):
    return {"verb": verb, "argv": [verb, *map(str, args)], **spec}


def check_eq(alg, lhs, rhs, bound=None):
    args = [equation_text(lhs, rhs), "--algebra", algebra_text(alg)]
    if bound is not None:
        args += ["--bound", bound]
    return cli_job("check-eq", *args, algebra=alg, lhs=lhs, rhs=rhs, bound=bound)


def tautology(alg, term):
    return cli_job("tautology", term_text(term), "--algebra", algebra_text(alg),
                   algebra=alg, term=term)


def axioms(alg, samples=None, seed=0, bound=None):
    args = ["--algebra", algebra_text(alg)]
    if samples is not None:
        args += ["--samples", samples, "--seed", seed]
    if bound is not None:
        args += ["--bound", bound]
    return cli_job("axioms", *args, algebra=alg, samples=samples, seed=seed, bound=bound)


def listing(verb, alg, bound=None):
    args = ["--algebra", algebra_text(alg)] + (["--bound", bound] if bound is not None else [])
    return cli_job(verb, *args, algebra=alg, bound=bound)


def export(alg, dot=False):
    args = ["--algebra", algebra_text(alg)] + (["--dot"] if dot else [])
    return cli_job("export", *args, algebra=alg, dot=dot)


def vc_member(alg):
    return cli_job("vc-member", "--algebra", algebra_text(alg), algebra=alg)


def flat_check(group, samples, seed):
    return cli_job("flat-check", "--group", group_text(group), "--samples", samples,
                   "--seed", seed, group=group, samples=samples, seed=seed)


def group_verb(verb, group, bound=None):
    args = ["--group", group_text(group)] + (["--bound", bound] if bound is not None else [])
    return cli_job(verb, *args, group=group, bound=bound)


# Valid equations: a drawn left side and an equivalent right side three nodes larger.
EQ_GROWTH = 3


def _equation(rng, alg, names, bound=None, valid=True):
    lhs = random_term(rng, 3, names)
    rhs = rewrite_to(rng, lhs, EQ_GROWTH) if valid else mutate(rng, lhs)
    return check_eq(alg, lhs, rhs, bound)


def _schema_tautology(rng, alg, schema, names=NAMES):
    """A tautology: a schema instance whose A uses every name."""
    a = random_term(rng, len(names) - 1, names, n_neg=0)
    b = random_term(rng, 1, names, n_neg=0)
    return tautology(alg, instantiate(schema, a, b))


# -- finite-exhaustive ---------------------------------------------------------------

# (algebra, names): 64 to 216 valuations each; products, whose operations
# cost more, get fewer valuations.
EQ_FINITE = [(chain(5), NAMES), (chain(6), NAMES), (prod(2, 3), NAMES), (chain(12), NAMES[:2]),
             (prod(3, 4), NAMES[:2]), (prod(2, 2, 3), NAMES[:2]), (prod(3, 3), NAMES[:2]),
             (prod(2, 2, 2), NAMES[:2])]
TAUT_FINITE = [chain(4), chain(5), chain(6), prod(2, 2), prod(2, 3)]


def _finite_exhaustive(rng):
    ax_n = _Bag(rng, range(6, 11))
    schema = _Bag(rng, SCHEMAS)
    taut_alg = _Bag(rng, TAUT_FINITE)
    eq = _Bag(rng, EQ_FINITE)
    vc_k = _Bag(rng, range(2, 7))
    vc_n = _Bag(rng, range(3, 13))
    table_alg = _Bag(rng, [chain(n) for n in range(8, 17)] + [prod(2, 3), prod(3, 3), prod(2, 2, 2)])
    dot_alg = _Bag(rng, [chain(n) for n in range(10, 31, 4)] + [prod(2, 3), prod(3, 4), prod(2, 2, 2)])
    lib_n = _Bag(rng, range(4, 9))
    while True:
        jobs = [axioms(chain(ax_n.draw()))]
        jobs += [_schema_tautology(rng, taut_alg.draw(), schema.draw()) for _ in range(2)]
        jobs.append(tautology(taut_alg.draw(), random_term(rng, 3)))
        for valid in (True, True, False):
            alg, names = eq.draw()
            jobs.append(_equation(rng, alg, names, valid=valid))
        jobs.append(vc_member(["prod", [chain(2)] * vc_k.draw()]))
        jobs.append(vc_member(chain(vc_n.draw())))
        jobs.append(export(table_alg.draw()))
        jobs.append(export(dot_alg.draw(), dot=True))
        jobs.append({"verb": "lib:check_mv_axioms", "algebra": chain(lib_n.draw())})
        rng.shuffle(jobs)
        yield jobs


# -- infinite-fragments ------------------------------------------------------------------

# (algebra, bound, names): fragments small enough that an equation that holds
# can be walked completely, 100 to 361 valuations each.
FRAGMENTS = [(CHANG, 2, NAMES), (CHANG, 8, NAMES[:2]), (delta(2), 3, NAMES[:2]),
             (delta(2), 2, NAMES[:2]), (delta(6), 2, NAMES[:2]), (INTERVAL, 4, NAMES),
             (INTERVAL, 7, NAMES[:2])]
POINTS = [["Z"], ["Q"], ["Zinv", 2], ["Zinv", 6], ["Zinv", 30]]
INFINITE = [CHANG, INTERVAL, delta(2), delta(6)]


def _cone_probe(rng, group):
    primes = {2: [2], 6: [2, 3], 30: [2, 3, 5]}.get(group[1], []) if group[0] == "Zinv" else None
    if primes is None:  # Q
        d = rng.randrange(1, 13)
    else:
        d = 1
        for _ in range(rng.randrange(4)):
            d *= rng.choice(primes)
    return str(Fraction(rng.randrange(1, 4 * d + 1), d))


def _infinite_fragments(rng):
    frag = _Bag(rng, FRAGMENTS)
    sampled = _Bag(rng, INFINITE)
    listed = _Bag(rng, [(CHANG, 6), (CHANG, 12), (delta(2), 3), (delta(6), 3),
                        (INTERVAL, 6), (INTERVAL, 9)])
    point = _Bag(rng, POINTS)
    probe_group = _Bag(rng, [["Zinv", 2], ["Zinv", 6], ["Zinv", 30], ["Q"]])
    samples = _Bag(rng, (60, 80, 100))
    flat_samples = _Bag(rng, (100, 200, 300))
    pt_bound = _Bag(rng, range(2, 7))
    while True:
        jobs = []
        for valid in (True, True, False):
            alg, bound, names = frag.draw()
            jobs.append(_equation(rng, alg, names, bound, valid))
        jobs.append(axioms(sampled.draw(), samples=samples.draw(),
                           seed=rng.randrange(1000), bound=rng.randrange(4, 9)))
        for verb in ("theta", "theta-star"):
            alg, bound = listed.draw()
            jobs.append(listing(verb, alg, bound))
        jobs.append(flat_check(point.draw(), flat_samples.draw(), rng.randrange(1000)))
        jobs.append(group_verb("theta-pt", point.draw(), pt_bound.draw()))
        g = probe_group.draw()
        jobs.append({"verb": "lib:group_from_action", "group": g,
                     "probes": [_cone_probe(rng, g) for _ in range(rng.randrange(6, 13))]})
        rng.shuffle(jobs)
        yield jobs


# -- cli-oneshot ---------------------------------------------------------------------------

# The nine commands of the README examples, verbatim.
README_EQUATION = "(x(+)x)(.)(x(+)x) = (x(.)x)(+)(x(.)x)"
_X = ["var", "x"]
_VC_LHS = ["odot", ["oplus", _X, _X], ["oplus", _X, _X]]
_VC_RHS = ["oplus", ["odot", _X, _X], ["odot", _X, _X]]


def readme_jobs():
    ce = check_eq(chain(3), _VC_LHS, _VC_RHS)
    ce["argv"][1] = README_EQUATION
    ev = cli_job("eval", "x -> (y -> x)", "--algebra", "interval", "--assign", "x=3/10;y=9/10",
                 algebra=INTERVAL, term=["implies", _X, ["implies", ["var", "y"], _X]],
                 assign={"x": "3/10", "y": "9/10"})
    return [
        listing("theta", CHANG, 3), ce, ev,
        cli_job("gp", "--group", "Z[1/2]", "--prime", 3, group=["Zinv", 2], prime=3),
        group_verb("classify", ["Zinv", 2]),
        cli_job("hom", "--src", "Q", "--dst", "Z", src=["Q"], dst=["Z"]),
        group_verb("theta-pt", ["Q"], 2),
        vc_member(chain(2)),
        flat_check(["Z"], 1000, 1),
    ]


def _cli_oneshot(rng):
    """Every round: the README commands, then three passes of one call of
    every verb, each on freshly drawn descriptors.  chain:N sizes are
    log-uniform from 3 to 2000, stratified per verb."""
    big = {verb: _LogStrata(rng, 3, 2000, 24) for verb in
           ("check-eq", "tautology", "theta", "theta-star", "gamma", "vc-member", "axioms")}
    schema = _Bag(rng, SCHEMAS)
    flat_samples = _Bag(rng, range(20, 61, 10))
    small_bound = _Bag(rng, range(1, 6))
    atoms = _Bag(rng, range(1, 5))

    def group():
        return ["Zinv", rng.randrange(2, 61)]

    def one_pass():
        g, g2 = group(), group()
        k = atoms.draw()
        boolean = chain(2) if k == 1 else ["prod", [chain(2)] * k]
        perfect = CHANG if rng.random() < 0.5 else ["delta", g]
        src, dst = rng.choice([(g, g2), (g, ["Q"]), (["Q"], g), (g, ["Z"]), (["Z"], g)])
        term = random_term(rng, 3, NAMES[:2])
        small = rng.randrange(3, 12)
        assign = {v: str(Fraction(rng.randrange(small), small - 1)) for v in ("x", "y")}
        unit = big["gamma"].draw() - 1
        prime = rng.choice([2, 3, 5, 7, 11])
        bound = small_bound.draw()
        return [
            cli_job("eval", term_text(term), "--algebra", f"chain:{small}", "--assign",
                    ";".join(f"{v}={q}" for v, q in assign.items()),
                    algebra=chain(small), term=term, assign=assign),
            _equation(rng, chain(big["check-eq"].draw()), NAMES[:1]),
            _schema_tautology(rng, chain(big["tautology"].draw()), schema.draw(), NAMES[:1]),
            listing("theta", chain(big["theta"].draw())),
            listing("theta-star", chain(big["theta-star"].draw())),
            cli_job("gamma", "--group", "Z", "--unit", unit, group=["Z"], unit=unit),
            group_verb("delta", g),
            group_verb("trop", g),
            cli_job("detrop", "--semifield", "trop:" + group_text(g), group=g),
            cli_job("f", "--semifield", "trop:" + group_text(g), "--bound", bound,
                    group=g, bound=bound),
            cli_job("glue", "--boolean", algebra_text(boolean), "--perfect",
                    algebra_text(perfect), boolean=k, perfect=perfect),
            vc_member(chain(big["vc-member"].draw())),
            cli_job("gp", "--group", group_text(g), "--prime", prime, group=g, prime=prime),
            group_verb("classify", g),
            cli_job("hom", "--src", group_text(src), "--dst", group_text(dst), src=src, dst=dst),
            flat_check(g, flat_samples.draw(), rng.randrange(1000)),
            group_verb("theta-pt", g, small_bound.draw()),
            axioms(chain(big["axioms"].draw()), samples=rng.randrange(10, 31),
                   seed=rng.randrange(1000)),
            export(chain(rng.randrange(3, 13)), dot=rng.random() < 0.5),
        ]

    while True:
        jobs = readme_jobs()
        for _ in range(3):
            jobs += one_pass()
        rng.shuffle(jobs)
        yield jobs


_ROUNDS = {"finite-exhaustive": _finite_exhaustive,
           "infinite-fragments": _infinite_fragments,
           "cli-oneshot": _cli_oneshot}


def rounds(workload: str, seed: int):
    """The endless stream of rounds (lists of jobs) for a workload and seed."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _ROUNDS[workload](random.Random(f"{workload}/{seed}"))


def jobs(workload: str, seed: int, count: int) -> list:
    """The first ``count`` jobs of a workload's stream."""
    out = []
    for batch in rounds(workload, seed):
        out += batch
        if len(out) >= count:
            return out[:count]
