"""Independent oracle: the expected outcome of every benchmark job.

Standard library only; nothing here imports mvtrop.  Chains compute on integer
numerators k standing for k/(n-1), products componentwise, the rational
interval on Farey fractions, and Δ(G) for G ⊆ Q on (bit, offset) pairs, whose
tuple order is the lexicographic order of Z lex G.  Join and meet are max and
min per totally ordered component, not the MV formulas mvtrop uses.
Enumeration follows the canonical order documented in
``mvtrop.algebra.enumerate_elements``, so first witnesses and ``checked``
counts can be derived here and compared.

``expect(job)`` returns ``{"exit": code, "output": ...}`` where ``output`` is
the decoded JSON object the CLI must print (keys listed in ``UNCHECKED`` are
not compared), the DOT text for ``export --dot``, or the report fields for a
library job.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

UNCHECKED = ("term",)  # eval echoes the term through mvtrop's own minimal printer


def rational_str(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def primes_of(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and primes_of(n) == [n]


# -- groups: Z, Q and Z[1/m] ----------------------------------------------------

class Group:
    """A subgroup of Q: ``inverted`` is None for Q, else the set of inverted primes."""

    def __init__(self, spec):
        self.spec = spec
        self.inverted = None if spec[0] == "Q" else (
            frozenset(primes_of(spec[1])) if spec[0] == "Zinv" else frozenset())

    def allows(self, d: int) -> bool:
        return self.inverted is None or set(primes_of(d)) <= self.inverted

    def cone(self, bound: int) -> list:
        """Members 0 <= q with q <= bound and denominator <= bound, ascending."""
        if self.spec[0] == "Z":
            return list(range(bound + 1))
        out = {Fraction(0)}
        for d in range(1, bound + 1):
            if self.allows(d):
                out.update(Fraction(n, d) for n in range(1, bound * d + 1) if math.gcd(n, d) == 1)
        return sorted(out)

    def chi_json(self) -> dict:
        if self.inverted is None:
            return {"default": "inf", "primes": {}}
        return {"default": "0", "primes": {str(p): "inf" for p in sorted(self.inverted)}}

    def json(self) -> dict:
        if self.spec[0] == "Z":
            return {"kind": "integers"}
        return {"kind": "q_subgroup", "chi": self.chi_json()}


# -- MV algebras -----------------------------------------------------------------

class Chain:
    def __init__(self, n):
        self.n, self.top = n, n - 1
        self.zero, self.one = 0, self.top

    def elements(self, bound=None):
        return list(range(self.n))

    def oplus(self, a, b):
        return min(self.top, a + b)

    def neg(self, a):
        return self.top - a

    def odot(self, a, b):
        return max(0, a + b - self.top)

    def join(self, a, b):
        return max(a, b)

    def meet(self, a, b):
        return min(a, b)

    def leq(self, a, b):
        return a <= b

    def render(self, a):
        return rational_str(Fraction(a, self.top))

    def text(self, a):
        return str(Fraction(a, self.top))

    def infinitesimal(self, a):
        return a == 0

    def json(self):
        return {"kind": "finite_chain", "size": self.n}


class Interval(Chain):
    def __init__(self):
        self.top = self.one = Fraction(1)
        self.zero = Fraction(0)

    def elements(self, bound):
        out = {Fraction(0), Fraction(1)}
        out.update(Fraction(n, d) for d in range(2, bound + 1) for n in range(1, d))
        return sorted(out)

    def render(self, a):
        return rational_str(a)

    def json(self):
        return {"kind": "rational_interval"}


class Delta:
    """Δ(G) as pairs (bit, offset) between (0, 0) and (1, 0) in Z lex G."""

    def __init__(self, group_spec):
        self.group = Group(group_spec)
        self.zero, self.one = (0, 0), (1, 0)

    def elements(self, bound):
        cone = self.group.cone(bound)
        return [(0, g) for g in cone] + [(1, -g) for g in reversed(cone)]

    def oplus(self, a, b):
        return min((a[0] + b[0], a[1] + b[1]), self.one)

    def neg(self, a):
        return (1 - a[0], -a[1])

    def odot(self, a, b):
        return self.neg(self.oplus(self.neg(a), self.neg(b)))

    def join(self, a, b):
        return max(a, b)

    def meet(self, a, b):
        return min(a, b)

    def leq(self, a, b):
        return a <= b

    def render(self, a):
        return [a[0], rational_str(a[1])]

    def json(self):
        if self.group.spec == ["Z"]:
            return {"kind": "chang"}
        return {"kind": "delta", "group": self.group.json()}


class Product:
    def __init__(self, factors):
        self.factors = factors
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)

    def elements(self, bound=None):
        return list(itertools.product(*(f.elements(bound) for f in self.factors)))

    def _map(self, op, *xs):
        return tuple(getattr(f, op)(*c) for f, *c in zip(self.factors, *xs))

    def oplus(self, a, b):
        return self._map("oplus", a, b)

    def neg(self, a):
        return self._map("neg", a)

    def odot(self, a, b):
        return self._map("odot", a, b)

    def join(self, a, b):
        return self._map("join", a, b)

    def meet(self, a, b):
        return self._map("meet", a, b)

    def leq(self, a, b):
        return all(f.leq(x, y) for f, x, y in zip(self.factors, a, b))

    def render(self, a):
        return [f.render(x) for f, x in zip(self.factors, a)]

    def text(self, a):
        return "(" + ",".join(f.text(x) for f, x in zip(self.factors, a)) + ")"

    def infinitesimal(self, a):
        return all(f.infinitesimal(x) for f, x in zip(self.factors, a))

    def json(self):
        return {"kind": "product", "factors": [f.json() for f in self.factors]}


def algebra(spec):
    kind = spec[0]
    if kind == "chain":
        return Chain(spec[1])
    if kind == "interval":
        return Interval()
    if kind == "delta":
        return Delta(spec[1])
    return Product([algebra(f) for f in spec[1]])


def is_finite(spec) -> bool:
    return spec[0] == "chain" or (spec[0] == "prod" and all(map(is_finite, spec[1])))


# -- terms -----------------------------------------------------------------------

def evaluate(A, t, env):
    tag = t[0]
    if tag == "var":
        return env[t[1]]
    if tag == "const":
        return A.one if t[1] else A.zero
    if tag == "neg":
        return A.neg(evaluate(A, t[1], env))
    a, b = evaluate(A, t[1], env), evaluate(A, t[2], env)
    if tag == "oplus":
        return A.oplus(a, b)
    if tag == "odot":
        return A.odot(a, b)
    if tag == "ominus":
        return A.odot(a, A.neg(b))
    if tag == "implies":
        return A.oplus(A.neg(a), b)
    if tag == "meet":
        return A.meet(a, b)
    return A.join(a, b)


def variables(t) -> set:
    if t[0] == "var":
        return {t[1]}
    return set().union(*(variables(u) for u in t[1:] if isinstance(u, list)))


def _x(s):
    return ["var", s]


LUKASIEWICZ = (
    ("axiom_1", ["implies", _x("x"), ["implies", _x("y"), _x("x")]]),
    ("axiom_2", ["implies", ["implies", _x("x"), _x("y")],
                 ["implies", ["implies", _x("y"), _x("z")], ["implies", _x("x"), _x("z")]]]),
    ("axiom_3", ["implies", ["implies", ["implies", _x("x"), _x("y")], _x("y")],
                 ["implies", ["implies", _x("y"), _x("x")], _x("x")]]),
    ("axiom_4", ["implies", ["implies", ["neg", _x("x")], ["neg", _x("y")]],
                 ["implies", _x("y"), _x("x")]]),
)


# -- checks --------------------------------------------------------------------------

def _report(verdict, checked, witness=None, mode="exhaustive", details=None):
    out = {"verdict": verdict, "checked": checked, "mode": mode}
    if witness is not None:
        out["witness"] = witness
    if details:
        out["details"] = details
    return out


def _valuations(A, names, bound):
    elems = A.elements(bound)
    for combo in itertools.product(elems, repeat=len(names)):
        yield dict(zip(names, combo))


def _render_env(A, env):
    return {k: A.render(v) for k, v in env.items()}


def equation_report(A, lhs, rhs, bound=None):
    names = sorted(variables(lhs) | variables(rhs))
    mode = "exhaustive" if bound is None else "bounded"
    checked = 0
    for env in _valuations(A, names, bound):
        checked += 1
        if evaluate(A, lhs, env) != evaluate(A, rhs, env):
            return _report("counterexample", checked, _render_env(A, env), mode)
    if bound is None:
        return _report("valid", checked)
    return _report("valid_up_to_bound", checked, mode=mode, details={"bound": bound})


def tautology_report(A, term):
    names = sorted(variables(term))
    checked = 0
    for env in _valuations(A, names, None):
        checked += 1
        value = evaluate(A, term, env)
        if value != A.one:
            return _report("counterexample", checked,
                           {"valuation": _render_env(A, env), "value": A.render(value)})
    return _report("valid", checked)


def axiom_suite_report(A, samples=None, seed=0, bound=12, finite=True):
    """The four Lukasiewicz axioms, then modus ponens; sampled mode replays the
    documented draw: ``random.Random(seed).choice`` over the canonical pool."""
    if samples is None:
        elems = A.elements()

        def tuples(arity):
            return itertools.product(elems, repeat=arity)
        mode = "exhaustive"
    else:
        pool = A.elements(None if finite else bound)
        rng = random.Random(seed)

        def tuples(arity):
            return (tuple(rng.choice(pool) for _ in range(arity)) for _ in range(samples))
        mode = "sampled"
    checked = 0
    for name, axiom in LUKASIEWICZ:
        names = sorted(variables(axiom))
        for combo in tuples(len(names)):
            checked += 1
            env = dict(zip(names, combo))
            value = evaluate(A, axiom, env)
            if value != A.one:
                return _report("counterexample", checked, {"axiom": name, "valuation":
                               _render_env(A, env), "value": A.render(value)}, mode)
    for a, b in tuples(2):
        checked += 1
        if A.oplus(A.neg(a), b) == A.one and a == A.one and b != A.one:
            return _report("counterexample", checked, {"axiom": "modus_ponens", "valuation":
                           _render_env(A, {"x": a, "y": b})}, mode)
    return _report("valid", checked, mode=mode)


def mv_axioms_report(A):
    """``check_mv_axioms``: the MV axioms over all tuples of the carrier."""
    elems, z, o = A.elements(), A.zero, A.one
    laws = (
        (3, lambda x, y, w: A.oplus(A.oplus(x, y), w) == A.oplus(x, A.oplus(y, w))),
        (2, lambda x, y: A.oplus(x, y) == A.oplus(y, x)),
        (1, lambda x: A.oplus(x, z) == x),
        (1, lambda x: A.oplus(x, o) == o),
        (1, lambda x: A.neg(A.neg(x)) == x),
        (0, lambda: A.neg(z) == o),
        (2, lambda x, y: A.oplus(A.neg(A.oplus(A.neg(x), y)), y)
         == A.oplus(A.neg(A.oplus(A.neg(y), x)), x)),
    )
    checked = 0
    for arity, law in laws:
        for combo in itertools.product(elems, repeat=arity):
            checked += 1
            if not law(*combo):
                return _report("counterexample", checked)
    return _report("valid", checked)


def _theta_member(A, x, star):
    sq = A.odot(x, x)
    two_sq = A.oplus(sq, sq)
    return A.leq(x, two_sq) if star else A.leq(two_sq, x)


def _cone_json(group, bound):
    return {"base_group": group.json(),
            "elements": [rational_str(g) for g in group.cone(bound)] + ["⊤"], "top": "⊤"}


def _tables(A):
    elems = A.elements()
    index = {x: i for i, x in enumerate(elems)}
    ops = {"oplus": A.oplus, "odot": A.odot, "meet": A.meet, "join": A.join}
    return {
        "algebra": A.json(), "fragment": False,
        "elements": [A.render(x) for x in elems],
        "neg": [index[A.neg(x)] for x in elems],
        "tables": {name: [[index[op(x, y)] for y in elems] for x in elems]
                   for name, op in ops.items()},
        "boolean": [i for i, x in enumerate(elems) if A.oplus(x, x) == x],
        "infinitesimal": [i for i, x in enumerate(elems) if A.infinitesimal(x)],
    }


def _hasse(A):
    elems = A.elements()
    n = len(elems)
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=ellipse];"]
    for i, x in enumerate(elems):
        attrs = [f'label="{A.text(x)}"']
        if A.oplus(x, x) == x:
            attrs.append("peripheries=2")
        if A.infinitesimal(x):
            attrs.append("style=filled fillcolor=lightgray")
        lines.append(f"  n{i} [{' '.join(attrs)}];")
    # In a product of chains y covers x exactly when they differ by one step in one place.
    steps = [x if isinstance(x, tuple) else (x,) for x in elems]
    for i in range(n):
        for j in range(n):
            diff = [b - a for a, b in zip(steps[i], steps[j])]
            if max(diff) == 1 and sum(map(abs, diff)) == 1:
                lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)


def _hom(src, dst):
    """r·G_src ⊆ G_dst for some r > 0 iff every prime inverted in src is inverted in dst."""
    if dst.inverted is None:
        return {"exists": True, "r": "1"}
    if src.inverted is None:
        missing = next(p for p in itertools.count(2) if _is_prime(p) and p not in dst.inverted)
    else:
        missing = min(src.inverted - dst.inverted, default=None)
    if missing is None:
        return {"exists": True, "r": "1"}
    return {"exists": False, "certificate_prime": missing}


def _flatness(group, samples, seed):
    """The Frobenius action is flat on every subgroup of Q: each sampled pair has a
    common refinement w = gcd and condition 3 is vacuous on a torsion-free cone."""
    pool = [q for q in (Fraction(n, d) for d in range(1, 13) for n in range(1, 13))
            if group.allows(q.denominator)]
    rng = random.Random(seed)
    for _ in range(samples):
        y, z = rng.choice(pool), rng.choice(pool)
        w = Fraction(math.gcd(y.numerator, z.numerator), math.lcm(y.denominator, z.denominator))
        if not (group.allows(w.denominator) and (y / w).denominator == 1 == (z / w).denominator):
            return _report("counterexample", 0, mode="sampled")
    return _report("valid", 1 + 2 * samples, mode="sampled",
                   details={"condition3": "vacuously satisfied", "condition3_collisions": 0})


def _lib_group_from_action(job):
    m = 1
    for p in job["probes"]:
        m = math.lcm(m, Fraction(p).denominator)
    if m == 1:
        return {"group": {"kind": "integers"}}
    exps = {}
    for p in primes_of(m):
        e, k = 0, m
        while k % p == 0:
            k //= p
            e += 1
        exps[str(p)] = str(e)
    return {"group": {"kind": "q_subgroup", "chi": {"default": "0", "primes": exps}}}


def expect(job) -> dict:
    verb = job["verb"]
    if verb == "lib:check_mv_axioms":
        return {"exit": None, "output": mv_axioms_report(algebra(job["algebra"]))}
    if verb == "lib:group_from_action":
        return {"exit": None, "output": _lib_group_from_action(job)}
    if "algebra" in job:
        spec = job["algebra"]
        A = algebra(spec)
        head = {"algebra": A.json()}
    if verb == "check-eq":
        bound = None if is_finite(spec) else job["bound"]
        out = {**head, **equation_report(A, job["lhs"], job["rhs"], bound)}
    elif verb == "tautology":
        out = {**head, **tautology_report(A, job["term"])}
    elif verb == "vc-member":
        x = ["var", "x"]
        rep = equation_report(A, ["odot", ["oplus", x, x], ["oplus", x, x]],
                              ["oplus", ["odot", x, x], ["odot", x, x]])
        out = {**head, "in_variety": rep["verdict"] == "valid", **rep}
    elif verb == "axioms":
        finite = is_finite(spec)
        bound = 12 if job["bound"] is None else job["bound"]
        out = {**head, **axiom_suite_report(A, job["samples"], job["seed"], bound, finite)}
    elif verb in ("theta", "theta-star"):
        bound = None if is_finite(spec) else job["bound"]
        out = {**head, "bound": bound,
               "elements": [A.render(x) for x in A.elements(bound)
                            if _theta_member(A, x, verb == "theta-star")]}
    elif verb == "export":
        return {"exit": 0, "output": _hasse(A) if job["dot"] else _tables(A)}
    elif verb == "eval":
        env = {k: _numerator(A, v) for k, v in job["assign"].items()}
        out = {**head, "value": A.render(evaluate(A, job["term"], env))}
    else:
        out = _group_verb(job)
    verdict = out.get("verdict")
    return {"exit": 1 if verdict == "counterexample" else 0, "output": out}


def _numerator(A, text):
    q = Fraction(text)
    return q if isinstance(A, Interval) else int(q * A.top)


def _group_verb(job):
    verb = job["verb"]
    if verb == "hom":
        src, dst = Group(job["src"]), Group(job["dst"])
        return {"src": src.chi_json(), "dst": dst.chi_json(), **_hom(src, dst)}
    if verb == "glue":
        perfect = algebra(job["perfect"]).json()
        k = job["boolean"]
        if k == 1:
            return {"algebra": perfect}
        return {"algebra": {"kind": "product", "factors": [Chain(2).json()] * (k - 1) + [perfect]}}
    if verb == "gamma":
        return {"algebra": Chain(job["unit"] + 1).json()}
    G = Group(job["group"])
    if verb == "delta":
        return {"algebra": Delta(job["group"]).json()}
    if verb == "trop":
        return {"semifield": {"kind": "trop", "group": G.json()}}
    if verb == "detrop":
        return {"group": G.json()}
    if verb in ("f", "theta-pt"):
        return _cone_json(G, job["bound"])
    if verb == "gp":
        p = job["prime"]
        divisible = G.inverted is None or p in G.inverted
        return {"group": G.chi_json(), "prime": p, "value": 1 if divisible else p}
    if verb == "classify":
        dense = G.inverted is None or bool(G.inverted)
        return {"group": G.chi_json(),
                "classification": "regularly_dense" if dense else "regularly_discrete"}
    if verb == "flat-check":
        return {"group": G.chi_json(), **_flatness(G, job["samples"], job["seed"])}
    raise ValueError(f"no oracle for {verb!r}")
