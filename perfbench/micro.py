"""Per-layer microbenchmarks: fixed seeded input pools, a warm-up, then the
median of several timed passes over the pool through the layer's public
functions.  The pools do not depend on the workload seed, so the figures of
two runs, or two commits, are comparable.

``run_all(mvtrop)`` returns ``{metric name: (value, unit)}``.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import workloads

SEED = 20240913
PASSES = 5


def _time(fn, items, passes=PASSES) -> float:
    """Median seconds per item of ``fn(item)`` over ``passes`` passes after a warm-up."""
    for item in items:
        fn(item)
    clock, per_item = time.perf_counter, []
    for _ in range(passes):
        t0 = clock()
        for item in items:
            fn(item)
        per_item.append((clock() - t0) / len(items))
    return statistics.median(per_item)


def _once(fn) -> float:
    """Median seconds of one call after a warm-up call."""
    return _time(lambda _: fn(), [None])


def _nodes(t) -> int:
    return 1 + sum(_nodes(u) for u in t[1:] if isinstance(u, list))


def run_all(m) -> dict:
    rng = random.Random(SEED)
    alg, grp, chars = m.algebra, m.groups, m.characteristics
    out = {}

    dyadic = grp.qsubgroup(chars.parse_group_label("Z[1/2]"))
    kinds = {
        "chain": (alg.FiniteChain(101), None),
        "product": (alg.product_algebra(*[alg.FiniteChain(3)] * 4), None),
        "interval": (alg.RationalInterval(), 12),
        "chang": (alg.CHANG, 20),
        "delta_dyadic": (alg.DeltaOf(dyadic), 4),
    }
    for kind, (A, bound) in kinds.items():
        pool = alg.enumerate_elements(A, bound)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(400)]
        ns = 1e9
        out[f"algebra.oplus_ns.{kind}"] = (_time(lambda p: alg.mv_oplus(*p), pairs) * ns, "ns")
        out[f"algebra.neg_ns.{kind}"] = (_time(lambda p: alg.mv_neg(p[0]), pairs) * ns, "ns")
        out[f"algebra.join_ns.{kind}"] = (_time(lambda p: alg.mv_join(*p), pairs) * ns, "ns")
        out[f"algebra.leq_ns.{kind}"] = (_time(lambda p: alg.mv_leq(*p), pairs) * ns, "ns")

    for kind, A, bound in (("chain", alg.FiniteChain(2000), None),
                           ("product", alg.product_algebra(*[alg.FiniteChain(10)] * 3), None),
                           ("interval", alg.RationalInterval(), 40),
                           ("chang", alg.CHANG, 500)):
        size = len(alg.enumerate_elements(A, bound))
        out[f"algebra.enumerate_ns_per_elem.{kind}"] = (
            _once(lambda: alg.enumerate_elements(A, bound)) / size * 1e9, "ns")

    asts = [workloads.random_term(rng, 6) for _ in range(30)]
    nodes = sum(_nodes(t) for t in asts) / len(asts)
    texts = [workloads.term_text(t) for t in asts]
    parsed = [m.terms.parse(text) for text in texts]
    for kind, A, bound in (("chain", alg.FiniteChain(11), None), ("chang", alg.CHANG, 5)):
        pool = alg.enumerate_elements(A, bound)
        cases = [(t, m.logic.Valuation(A, {v: rng.choice(pool) for v in "xyz"}))
                 for t in parsed for _ in range(4)]
        out[f"logic.evaluate_ns_per_node.{kind}"] = (
            _time(lambda c: m.logic.evaluate(*c), cases) / nodes * 1e9, "ns")

    chain20 = alg.FiniteChain(20)
    cells = 4 * 20 * 20 + 20
    out["export.table_cells_per_s"] = (cells / _once(lambda: m.export.operation_tables(chain20)),
                                       "1/s")
    chain30 = alg.FiniteChain(30)
    out["export.hasse_ms.chain30"] = (_once(lambda: m.export.hasse_dot(chain30)) * 1e3, "ms")

    lex = grp.LexZG(grp.Z)
    for kind, G, pool in (("z", grp.Z, list(range(-50, 51))),
                          ("dyadic", dyadic, grp.group_enumerate(dyadic, 4)),
                          ("lex", lex, grp.group_enumerate(lex, 5))):
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(400)]
        out[f"groups.add_ns.{kind}"] = (_time(lambda p: grp.group_add(G, *p), pairs) * 1e9, "ns")
        out[f"groups.leq_ns.{kind}"] = (_time(lambda p: grp.group_leq(G, *p), pairs) * 1e9, "ns")
    q = grp.qsubgroup(chars.CHI_Q)
    size = len(grp.group_enumerate(q, 12))
    out["groups.enumerate_ns_per_elem.q"] = (
        _once(lambda: grp.group_enumerate(q, 12)) / size * 1e9, "ns")

    chi6 = chars.parse_group_label("Z[1/6]")
    rationals = [Fraction(rng.randrange(1, 500), rng.randrange(1, 200)) for _ in range(400)]
    out["characteristics.contains_ns"] = (
        _time(lambda x: chars.contains_rational(chi6, x), rationals) * 1e9, "ns")

    action = m.qpoints.frobenius_action(chi6)
    report = m.qpoints.check_flatness(action, samples=300, seed=1)
    out["qpoints.flatness_checked_per_s"] = (
        report.checked / _once(lambda: m.qpoints.check_flatness(action, samples=300, seed=1)),
        "1/s")
    probe_sets = [[Fraction(rng.randrange(1, 50), 2 ** rng.randrange(4) * 3 ** rng.randrange(3))
                   for _ in range(8)] for _ in range(20)]
    out["qpoints.reconstruct_us_per_probe_set"] = (
        _time(lambda ps: m.qpoints.group_from_action(action, ps), probe_sets) * 1e6, "us")

    for kind, A, bound in (("chain", alg.FiniteChain(101), None), ("chang", alg.CHANG, 20)):
        S = m.functors.theta(A)
        pool = alg.enumerate_elements(A, bound)
        out[f"functors.theta_member_ns.{kind}"] = (_time(S.contains, pool) * 1e9, "ns")

    cone = m.bisemirings.TopCone(grp.qsubgroup(chi6))
    size = len(m.bisemirings.cone_elements(cone, 8))
    out["bisemirings.cone_ns_per_elem"] = (
        _once(lambda: m.bisemirings.cone_elements(cone, 8)) / size * 1e9, "ns")

    out["cli.build_parser_ms"] = (_once(m.cli.build_parser) * 1e3, "ms")
    doc = m.export.operation_tables(alg.FiniteChain(12))
    kb = len(m.jsonio.dumps(doc).encode()) / 1024
    out["jsonio.dumps_us_per_kb"] = (_once(lambda: m.jsonio.dumps(doc)) / kb * 1e6, "us")
    shorthands = ["chain:17", "prod:chain:2,chain:3", "delta:Z[1/6]", "chang", "interval",
                  "delta:Z[1/30]", "prod:chain:2,chain:2,chain:2", "delta:Q"]
    out["jsonio.parse_shorthand_us"] = (
        _time(m.jsonio.parse_algebra_shorthand, shorthands) * 1e6, "us")
    out["terms.parse_us_per_node"] = (_time(m.terms.parse, texts) / nodes * 1e6, "us")
    out["terms.print_us_per_node"] = (_time(m.terms.print_term, parsed) / nodes * 1e6, "us")
    return out
