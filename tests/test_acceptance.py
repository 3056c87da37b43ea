"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Every test prints `ACCEPTANCE <name>: PASS|FAIL` on the real stdout (past the
capture plugin) and then asserts, so the suite both reads as a checklist and
fails loudly.  Tolerances are pinned here, not imported, so a change in
library defaults cannot silently relax the gate.

family-e10-order checks the first-moment decay where it exists.  For l = 0,
alpha = beta = 0 the operator reproduces t exactly ([m] = [n], so
S(t; x) = [n]x/[n] = x): the closed shift S(t; x) - x is exactly 0 and the
full evaluation path's error is roundoff along the whole family.  There the
check asserts exact reproduction, and the first-order decay on shapes where
the error is nonzero (l = 1, or alpha, beta > 0) and of the square condition.
"""

import dataclasses
import decimal
import math
import time

import numpy as np
import pytest

from pqss import moments
from pqss.analysis import BOUND_SLACK, auxiliary_apply, total_modulus_bound_grid
from pqss.catalog import build_catalog
from pqss.cli import main as cli_main
from pqss.convergence import (
    AxisShape,
    build_operator,
    convergence_table,
    empirical_order,
    korovkin_suite,
    one_minus_c_over_n,
)
from pqss.moments import (
    SWEEP_AB,
    SWEEP_N,
    central_moment,
    literal_first_moment_factor,
    moment_closed,
    moment_oracle,
    oracle_weight_vector,
    standard_sweep,
    sweep_grid,
    verify_moments,
)
from pqss.operators import (
    AxisConfig,
    BivariateOperator,
    apply_bivariate,
    apply_on_grid,
    nodes,
    reduce_operator,
    weight_matrix,
    weight_vector,
)
from pqss.pq_core import PQPair


@pytest.fixture
def verdict(capfd):
    def emit(name: str, ok: bool, detail: str = ""):
        with capfd.disabled():
            line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
            if detail:
                line += f" - {detail}"
            print(line, flush=True)
        assert ok, f"{name}: {detail}"

    return emit


def test_moment_closed_forms(verdict, asymmetric_sweep):
    start = time.monotonic()
    res = verify_moments(standard_sweep() + asymmetric_sweep, sweep_grid(11), tolerance=1e-10)
    elapsed = time.monotonic() - start
    worst = max(r.max_absdiff for r in res.reports)
    ok = res.ok and elapsed < 60.0
    verdict(
        "moment-closed-forms", ok,
        f"{res.n_checks} closed-vs-oracle checks over 135 symmetric and 135 asymmetric "
        f"operators, {len(res.failures)} failures, "
        f"worst absdiff {worst:.2e}, {elapsed:.1f}s (budget 60s)",
    )


def test_partition_of_unity(verdict):
    xs = sweep_grid(11)
    worst = 0.0
    min_weight = math.inf
    for op in standard_sweep():
        for x in xs:
            w = weight_vector(op.axis1, float(x))
            worst = max(worst, abs(math.fsum(w.tolist()) - 1.0))
            min_weight = min(min_weight, float(w.min()))
    ok = worst <= 1e-12 and min_weight >= 0.0

    # high-degree axes: the rows' sums before their division
    worst_big = 0.0
    for axis in (
        AxisConfig(n=2000, l=0, pq=PQPair(0.999, 0.998)),
        AxisConfig(n=1997, l=3, pq=PQPair(0.999, 0.998), alpha=0.5, beta=1.0),
    ):
        for x in xs:
            w = weight_vector(axis, float(x))
            worst_big = max(worst_big, abs(math.fsum(w.tolist()) - 1.0))
            min_weight = min(min_weight, float(w.min()))
    ok = ok and worst_big <= 1e-9
    verdict(
        "partition-of-unity", ok,
        f"sweep worst |sum-1| {worst:.2e} (tol 1e-12), degree-2000 worst "
        f"{worst_big:.2e} (tol 1e-9), min weight {min_weight:.2e}",
    )


def test_high_degree_weights(verdict):
    # the production ratio rows against the oracle's decimal rows, at the
    # degrees the Korovkin tables reach: relative error over weights > 1e-200
    start = time.monotonic()
    xs = (0.1, 0.37, 0.5, 0.83, 0.999)
    family = one_minus_c_over_n(0.5, 1.0)
    axes = [AxisConfig(n=m, l=0, pq=family.pq_at(m))
            for m in (500, 2000, 8000, 16384, 32768, 65536)]
    axes.append(AxisConfig(n=2000, l=0, pq=PQPair(0.999, 0.998)))
    worst = 0.0
    for axis in axes:
        for x, w in zip(xs, weight_matrix(axis, xs)):
            ref = oracle_weight_vector(axis, x)
            big = ref > 1e-200
            worst = max(worst, float(np.max(np.abs(w[big] - ref[big]) / ref[big])))
    elapsed = time.monotonic() - start
    verdict(
        "high-degree-weights", worst <= 1e-10,
        f"weight_matrix vs decimal oracle at m = 500, 2000, 8000, 16384, 32768, 65536 on "
        f"1 - c/n and "
        f"m = 2000 at (0.999, 0.998), 5 points each, worst relative error "
        f"{worst:.2e} over weights > 1e-200 (tol 1e-10), {elapsed:.1f}s",
    )


def test_pq_weights_are_q_weights(verdict):
    # With r = q/p, [k] = p^(k-1) [k]_r and p^j - q^j x = p^j (1 - r^j x), and the
    # powers of p in s_nu cancel: the (p,q)-weights are the q-Bernstein weights at
    # r, which is all the production path computes.  (i) The oracle's decimal rows
    # at (p, q) and at (1, q/p), with q/p formed at 90 digits, agree; (ii) pairs
    # with one log_ratio have the same production weights; (iii) with p a power of
    # two, q/p is exact in binary, and the operator at (p, q) equals the one at
    # (1, q/p) for l = 0, alpha = beta = 0, nodes included.
    start = time.monotonic()
    keys = sorted({(op.axis1.degree, op.axis1.pq.p, op.axis1.pq.q) for op in standard_sweep()})
    rows = [(key, float(x)) for key in keys for x in sweep_grid(11)]
    rows += [((1024, 0.999, 0.998), x) for x in (0.1, 0.37, 0.5, 0.83, 0.999)]
    decimal_worst = 0.0
    for (m, p, q), x in rows:
        with decimal.localcontext(decimal.Context(prec=90)):
            r = decimal.Decimal(q) / decimal.Decimal(p)
        pq_row = moments._decimal_row(m, p, q, x)
        r_row = moments._decimal_row(m, 1, r, x)
        decimal_worst = max([decimal_worst, *(float(abs(a - b) / b)
                                              for a, b in zip(pq_row, r_row) if b)])

    # whatever n, l, alpha and beta; 0.5^m is a normal double up to m = 1021
    xs = sweep_grid(11)
    edge_xs = np.concatenate(([0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, 1.0], np.linspace(0, 1, 41)))
    same_bits = PQPair(0.5, 0.25).log_ratio == PQPair(1.0, 0.5).log_ratio and all(
        np.array_equal(weight_matrix(AxisConfig(n=n, l=m - n, pq=PQPair(0.5, 0.25),
                                                alpha=0.5, beta=1.0), edge_xs).view(np.uint64),
                       weight_matrix(AxisConfig(n=m, l=0, pq=PQPair(1.0, 0.5)), edge_xs)
                       .view(np.uint64))
        for n, m in ((1, 1), (28, 28), (600, 600), (600, 1000)))

    cat = build_catalog(1.0, 1.0)
    worst_ulps = 0.0
    for p, q in ((0.5, 0.25), (0.25, 0.2), (0.125, 0.1)):
        for n1, n2 in ((7, 28), (28, 300)):
            ops = [BivariateOperator(AxisConfig(n=n1, l=0, pq=pair), AxisConfig(n=n2, l=0, pq=pair))
                   for pair in (PQPair(p, q), PQPair(1.0, q / p))]
            for entry in cat.values():
                a, b = (apply_on_grid(op, entry.factors, xs, xs) for op in ops)
                ulps = np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))
                worst_ulps = max(worst_ulps, float(ulps.max()))
    elapsed = time.monotonic() - start
    ok = decimal_worst <= 1e-50 and same_bits and worst_ulps <= 4.0
    verdict(
        "pq-weights-are-q-weights", ok,
        f"decimal rows at (p, q) and (1, q/p) on the sweep's {len(keys)} (m, p, q) and "
        f"m = 1024 at (0.999, 0.998), {len(rows)} rows, worst relative difference "
        f"{decimal_worst:.2e} (tol 1e-50); production rows of (0.5, 0.25) and (1.0, 0.5) "
        f"bit-identical at m = 1, 28, 600, 1000: {same_bits}; operators at p = 0.5, 0.25, "
        f"0.125 and at p = 1 on every catalog entry, worst {worst_ulps:g} ulps (tol 4), "
        f"{elapsed:.1f}s",
    )


_DECIMAL = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _decimal_nodes(axis: AxisConfig) -> np.ndarray:
    """(p^(base-nu) [nu] + alpha) / ([n] + beta) in decimal at 60 digits, with
    [k] = (p^k - q^k) / (p - q) and base = m (or n for the literal nodes),
    each node rounded once."""
    with decimal.localcontext(_DECIMAL):
        p, q, alpha, beta = map(decimal.Decimal, (axis.pq.p, axis.pq.q, axis.alpha, axis.beta))
        m = axis.degree
        base = m if axis.node_exponent == "canonical" else axis.n
        brackets = [(p ** k - q ** k) / (p - q) for k in range(m + 1)]
        den = brackets[axis.n] + beta
        return np.array([float((p ** (base - nu) * b + alpha) / den)
                         for nu, b in enumerate(brackets)])


def _phillips_moments(axis: AxisConfig, x: float) -> list[float]:
    """S(t), S(t^2) and S((t - x)^2) through phi(u) = A u + B from the q-Bernstein
    moments at r = q/p, 1, x and x^2 + x (1 - x) / [m]_r (Phillips 1997), with
    A = p^(m-1) [m]_r / D and B = alpha / D, in decimal at 60 digits."""
    with decimal.localcontext(_DECIMAL):
        p, q, alpha, beta, x = map(decimal.Decimal, (axis.pq.p, axis.pq.q, axis.alpha,
                                                     axis.beta, x))
        r, m = q / p, axis.degree
        den = (p ** axis.n - q ** axis.n) / (p - q) + beta
        bracket_m = (1 - r ** m) / (1 - r)
        a, b = p ** (m - 1) * bracket_m / den, alpha / den
        first = a * x + b
        second = a * a * (x * x + x * (1 - x) / bracket_m) + 2 * a * b * x + b * b
        central = (first - x) ** 2 + a * a * x * (1 - x) / bracket_m
        return [float(first), float(second), float(central)]


def test_affine_q_bernstein(verdict):
    # Each axis is Phillips' q-Bernstein operator at r = q/p composed with
    # phi(u) = A u + B: t_nu = A [nu]_r / [m]_r + B, as [k] = p^(k-1) [k]_r.
    # (i) The production nodes are the direct (p,q) formula in decimal, on the
    # sweep and above m = 8000, with both node exponents; (ii) Phillips' moments
    # hold on the decimal q-Bernstein rows at r, and through phi they are the
    # closed moments; (iii) on axes whose [n], p^m or D^2 left the range the
    # (p,q) form needed, S(e0), S(t) and the central moment are the oracle's.
    # Dropping p^l from A, or [m-1]_r for [m]_r, fails (i) or (ii).
    start = time.monotonic()
    family = one_minus_c_over_n(0.5, 1.0)
    high = [AxisConfig(n=8192, l=1, pq=family.pq_at(8192), alpha=0.5, beta=1.0),
            AxisConfig(n=8192, l=3, pq=family.pq_at(8192)),
            AxisConfig(n=8000, l=2, pq=PQPair(0.9, 0.6), alpha=0.5, beta=1.0)]
    # and axes the (p,q) form refused: p^(n-1) 0 with a tiny beta, [n] 0 with
    # beta = 0, and literal nodes whose p^l is 0
    edge = [AxisConfig(n=1100, l=0, pq=PQPair(0.5, 0.25), beta=1e-320),
            AxisConfig(n=1100, l=0, pq=PQPair(0.5, 0.4999), beta=1e-300),
            AxisConfig(n=1000, l=2, pq=PQPair(0.3, 0.2)),
            AxisConfig(n=2, l=1100, pq=PQPair(0.5, 0.25), node_exponent="literal")]
    node_ulps = 0.0
    for exponent in ("canonical", "literal"):
        axes = [op.axis1 for op in standard_sweep(exponent)]
        axes += [dataclasses.replace(axis, node_exponent=exponent) for axis in high]
        for axis in axes + edge * (exponent == "canonical"):
            want = _decimal_nodes(axis)
            ulps = np.abs(nodes(axis) - want) / np.spacing(np.abs(want))
            node_ulps = max(node_ulps, float(ulps.max()))

    phillips_worst = 0.0
    for m, p, q in sorted({(op.axis1.degree, op.axis1.pq.p, op.axis1.pq.q)
                           for op in standard_sweep()}):
        for x in sweep_grid(11):
            with decimal.localcontext(_DECIMAL):
                r = decimal.Decimal(q) / decimal.Decimal(p)
                u = [(1 - r ** nu) / (1 - r ** m) for nu in range(m + 1)]
                w = moments._decimal_row(m, 1, r, x)
                xd = decimal.Decimal(x)
                residuals = (sum(w) - 1, sum(a * b for a, b in zip(w, u)) - xd,
                             sum(a * b * b for a, b in zip(w, u))
                             - (xd * xd + xd * (1 - xd) * (1 - r) / (1 - r ** m)))
            phillips_worst = max(phillips_worst, *(float(abs(d)) for d in residuals))
    # relative error, absolute where the value is 0: the decimal moments' own
    # roundoff is near 1e-59, so below 1e-40 they read 0
    moment_worst = [0.0, 0.0, 0.0]
    for axis in [op.axis1 for op in standard_sweep()] + high:
        for x in sweep_grid(11):
            got = (moments.first_moment_univariate(axis, x),
                   moments.second_moment_univariate(axis, x), central_moment(axis, x))
            for k, (g, w) in enumerate(zip(got, _phillips_moments(axis, float(x)))):
                err = abs(g - w) / (abs(w) if abs(w) > 1e-40 else 1.0)
                moment_worst[k] = max(moment_worst[k], err)

    xs = np.array([0.1, 0.5, 0.9])
    unit = AxisConfig(n=1, l=0, pq=PQPair(1.0, 0.5))
    opened = [AxisConfig(n=600, l=1, pq=PQPair(0.5, 0.25)),  # D^2 subnormal
              AxisConfig(n=6700, l=24, pq=PQPair(0.9, 0.6)),  # p^m subnormal
              AxisConfig(n=1000, l=2, pq=PQPair(0.3, 0.2), alpha=0.5, beta=1.0),  # p^m, [n] 0
              AxisConfig(n=8, l=0, pq=PQPair(1.0, 0.5), alpha=1e159, beta=1e160)]  # D^2 inf
    oracle_worst = 0.0
    for axis in opened:
        t = nodes(axis)
        tables = [np.float64(1.0), t[:, None], ((t - xs[:, None]) ** 2)[:, None, :, None]]
        oracle = moment_oracle(BivariateOperator(axis, unit), tables, xs, [0.0])[:, :, 0]
        closed = [np.ones_like(xs), moments.first_moment_univariate(axis, xs),
                  central_moment(axis, xs)]
        for c, o in zip(closed, oracle):
            oracle_worst = max(oracle_worst,
                               float(np.max(np.abs(c - o) / np.maximum(1.0, np.abs(o)))))
    elapsed = time.monotonic() - start
    ok = (node_ulps <= 6.0 and phillips_worst <= 1e-50 and max(moment_worst) <= 1e-14
          and oracle_worst <= 1e-10)
    verdict(
        "affine-q-bernstein", ok,
        f"nodes vs decimal (p,q) formula on the sweep and m = 8002, 8193, 8195, both exponents, "
        f"and {len(edge)} axes the (p,q) form refused, "
        f"worst {node_ulps:g} ulps (tol 6); Phillips' moments on the decimal rows at r, "
        f"worst {phillips_worst:.2e} (tol 1e-50); closed S(t), S(t^2), central vs "
        f"Phillips through phi, worst relative error {moment_worst[0]:.2e}, {moment_worst[1]:.2e}, "
        f"{moment_worst[2]:.2e} (tol 1e-14); S(e0), S(t), central "
        f"vs oracle on {len(opened)} axes the (p,q) form refused, worst {oracle_worst:.2e} "
        f"(tol 1e-10), {elapsed:.1f}s",
    )


def test_high_degree_moments(verdict):
    # the closed e10, e20 and central moments against the oracle at the degrees
    # the Korovkin tables reach; the second axis has degree 1 and x2 = 0, where
    # its weights are exactly (1, 0), so each point costs one decimal row
    start = time.monotonic()
    xs = np.array([0.001, 0.1, 0.37, 0.5, 0.83, 0.999])
    family = one_minus_c_over_n(0.5, 1.0)
    shapes = (AxisShape(), AxisShape(l=1, alpha=0.5, beta=1.0), AxisShape(l=3, alpha=1.0, beta=2.0))
    unit = AxisConfig(n=1, l=0, pq=PQPair(1.0, 0.5))
    worst = {"e10": 0.0, "e20": 0.0, "central": 0.0}
    for n in (64, 256, 1024, 2048, 8192):
        for shape in shapes:
            axis = AxisConfig(n=n, l=shape.l, pq=family.pq_at(n), alpha=shape.alpha,
                              beta=shape.beta)
            op = BivariateOperator(axis, unit)
            t = nodes(axis)
            tables = [t[:, None], (t ** 2)[:, None], ((t - xs[:, None]) ** 2)[:, None, :, None]]
            oracle = moment_oracle(op, tables, xs, [0.0])[:, :, 0]
            closed = [moment_closed(op, 1, 0, xs, 0.0), moment_closed(op, 2, 0, xs, 0.0),
                      central_moment(axis, xs)]
            for name, c, o in zip(worst, closed, oracle):
                worst[name] = max(worst[name], float(np.max(np.abs(c - o) / np.abs(o))))
    elapsed = time.monotonic() - start
    ok = worst["central"] <= 1e-11 and worst["e10"] <= 1e-13 and worst["e20"] <= 1e-13
    verdict(
        "high-degree-moments", ok,
        f"closed vs oracle at n = 64..8192 on 1 - c/n, 3 shapes x 6 points, worst relative "
        f"error e10 {worst['e10']:.2e}, e20 {worst['e20']:.2e} (tol 1e-13), central "
        f"{worst['central']:.2e} (tol 1e-11), {elapsed:.1f}s",
    )


def test_literal_node_factor(verdict):
    worst = 0.0
    checked = 0
    for n in SWEEP_N:
        for l in (1, 3):
            for p, q in ((0.9, 0.6), (0.99, 0.95)):
                for alpha, beta in SWEEP_AB:
                    axis = AxisConfig(n=n, l=l, pq=PQPair(p, q), alpha=alpha, beta=beta)
                    for x in (0.3, 0.7, 1.0):
                        factor = literal_first_moment_factor(axis, x)
                        worst = max(worst, abs(factor - p ** l))
                        checked += 1
    ok = worst <= 1e-12
    verdict(
        "literal-node-factor", ok,
        f"{checked} axis/point combinations, worst |factor - p^l| {worst:.2e} (tol 1e-12)",
    )


def test_auxiliary_identities(verdict, asymmetric_sweep):
    pts = np.linspace(0.0, 1.0, 5)
    worst = 0.0
    for op in standard_sweep() + asymmetric_sweep:
        for x1 in pts:
            for x2 in pts:
                g1 = auxiliary_apply(op, ((lambda t: t - x1, lambda t: 1.0),), float(x1), float(x2))
                g2 = auxiliary_apply(op, ((lambda t: 1.0, lambda t: t - x2),), float(x1), float(x2))
                worst = max(worst, abs(g1), abs(g2))
    ok = worst <= 1e-11
    verdict(
        "auxiliary-identities", ok,
        f"both centered coordinates annihilated at {270 * 25} points "
        "of 135 symmetric and 135 asymmetric operators, "
        f"worst |residual| {worst:.2e} (tol 1e-11)",
    )


def test_modulus_bound_sweep(verdict, asymmetric_sweep):
    xs = np.linspace(0.0, 1.0, 41)
    catalogs: dict[tuple[float, float], dict] = {}
    violations = 0
    checks = 0
    min_margin = math.inf
    start = time.monotonic()
    for op in standard_sweep() + asymmetric_sweep:
        widths = (op.axis1.l + 1.0, op.axis2.l + 1.0)
        if widths not in catalogs:
            catalogs[widths] = build_catalog(*widths)
        for tf in catalogs[widths].values():
            if tf.total_modulus is None:
                continue
            lhs, rhs = total_modulus_bound_grid(op, tf, xs, xs)
            violations += int(np.sum(lhs > rhs + BOUND_SLACK))
            checks += lhs.size
            min_margin = min(min_margin, float(np.min(rhs - lhs)))
    elapsed = time.monotonic() - start
    ok = violations == 0
    verdict(
        "modulus-bound-sweep", ok,
        f"{checks} bound evaluations across 135 symmetric and 135 asymmetric "
        f"operators x 12 functions, "
        f"{violations} violations, min margin {min_margin:.2e} "
        f"(slack {BOUND_SLACK:g}), {elapsed:.1f}s",
    )


def test_family_sup_errors(verdict):
    spec = one_minus_c_over_n(0.5, 1.0)
    ns = (16, 32, 64, 128, 256, 512)
    cat = build_catalog(1.0, 1.0)
    start = time.monotonic()
    ops = [build_operator(spec, n, AxisShape(), AxisShape()) for n in ns]
    suite = korovkin_suite(ops, 41)
    table = convergence_table(ops, cat["e20"], 41)
    elapsed = time.monotonic() - start
    last = suite[-1]
    finals = {
        "e00": last.sup_e00,
        "e10": last.sup_e10,
        "e01": last.sup_e01,
        "e20+e02": last.sup_e20_e02,
    }
    ok = elapsed < 120.0 and all(v < 1e-2 for v in finals.values())
    sup_512 = table[-1].sup_err
    verdict(
        "family-sup-errors", ok,
        "n=512 sup errors " + ", ".join(f"{k}={v:.2e}" for k, v in finals.items())
        + f", e20 full-evaluation sup {sup_512:.2e}, {elapsed:.1f}s (budget 120s)",
    )


def test_family_e10_order(verdict):
    spec = one_minus_c_over_n(0.5, 1.0)
    ns = (16, 32, 64, 128, 256, 512)

    def in_order_band(order: float) -> bool:
        return -1.3 <= order <= -0.7

    # first-order decay of sup|S(t1;x)-x| on one shape per cause of a nonzero
    # error: l > 0 makes [m] != [n], alpha/beta shift the nodes
    shifted = {
        "l=1": AxisShape(l=1),
        "alpha=0.5,beta=1": AxisShape(alpha=0.5, beta=1.0),
        "l=1,alpha=0.5,beta=1": AxisShape(l=1, alpha=0.5, beta=1.0),
    }
    shifted_orders = {}
    for label, shape in shifted.items():
        suite = korovkin_suite([build_operator(spec, n, shape, shape) for n in ns], 41)
        shifted_orders[label] = empirical_order([(r.n, r.sup_e10) for r in suite])

    # l = 0, alpha = beta = 0: [m] = [n], so S(t; x) = [n]x/[n] = x and the
    # first-moment errors are roundoff; check exact reproduction instead, on
    # the closed forms and on the full evaluation path
    default = korovkin_suite([build_operator(spec, n, AxisShape(), AxisShape()) for n in ns], 41)
    closed_sup = max(max(r.sup_e10, r.sup_e01) for r in default)
    xs = np.linspace(0.0, 1.0, 41)
    op64 = build_operator(spec, 64, AxisShape(), AxisShape())
    full = apply_on_grid(op64, ((lambda t: t, lambda t: 1.0),), xs, xs)
    full_sup = float(np.max(np.abs(full - xs[:, None])))
    sq_order = empirical_order([(r.n, r.sup_e20_e02) for r in default])

    ok = (
        all(in_order_band(o) for o in shifted_orders.values())
        and closed_sup <= 1e-13
        and full_sup <= 1e-12
        and in_order_band(sq_order)
    )
    verdict(
        "family-e10-order", ok,
        "order[e10] "
        + ", ".join(f"{k}: {v:.3f}" for k, v in shifted_orders.items())
        + " (required [-1.3, -0.7]); default shape reproduces t: closed "
        f"sup e10/e01 {closed_sup:.2e} over n=16..512 (tol 1e-13), full-path "
        f"sup|S(t1)-x1| at n=64 {full_sup:.2e} (tol 1e-12), order[e20+e02] "
        f"{sq_order:.3f} (required [-1.3, -0.7])",
    )


# Voronovskaja's limit, which extends the paper (its abstract claims upper
# rates only).  On p_n = 1 - c_p/n, q_n = 1 - c_q/n put a = e^-c_p, b = e^-c_q
# and kappa = lim [n]/n = (a - b)/(c_q - c_p).  From gap and the central
# moment, each axis has
#     n (S(t; x) - x)   -> A(x) = (((b - c_p kappa) l - beta) x + alpha) / kappa
#     n S((t - x)^2; x) -> B(x) = a x (1 - x) / kappa
# and so n (S_n f - f)(x1, x2) -> V = A1 f_1 + A2 f_2 + (B1 f_11 + B2 f_22) / 2.
VORONOVSKAJA_CP, VORONOVSKAJA_CQ = 0.5, 1.0
# (g, g', g'') of the one factor g(t1) g(t2) of each checked function
VORONOVSKAJA_FACTORS = {
    "exp_sum": (math.exp, math.exp, math.exp),
    "sinprod": (lambda t: math.sin(math.pi * t), lambda t: math.pi * math.cos(math.pi * t),
                lambda t: -math.pi ** 2 * math.sin(math.pi * t)),
}


def _voronovskaja_axis_limits(shape: AxisShape, x: float) -> tuple[float, float]:
    """(A(x), B(x)) of one axis on the 1 - c/n family."""
    c_p, c_q = VORONOVSKAJA_CP, VORONOVSKAJA_CQ
    a, b = math.exp(-c_p), math.exp(-c_q)
    kappa = (a - b) / (c_q - c_p)
    return ((((b - c_p * kappa) * shape.l - shape.beta) * x + shape.alpha) / kappa,
            a * x * (1.0 - x) / kappa)


def _voronovskaja_limit(name: str, shape1: AxisShape, shape2: AxisShape, xs) -> np.ndarray:
    """V(x1, x2) on the product grid xs x xs."""
    g, g1, g2 = VORONOVSKAJA_FACTORS[name]
    out = np.empty((len(xs), len(xs)))
    for i, x1 in enumerate(xs):
        a1, b1 = _voronovskaja_axis_limits(shape1, x1)
        for j, x2 in enumerate(xs):
            a2, b2 = _voronovskaja_axis_limits(shape2, x2)
            out[i, j] = (a1 * g1(x1) * g(x2) + a2 * g(x1) * g1(x2)
                         + (b1 * g2(x1) * g(x2) + b2 * g(x1) * g2(x2)) / 2.0)
    return out


def test_voronovskaja(verdict):
    spec = one_minus_c_over_n(VORONOVSKAJA_CP, VORONOVSKAJA_CQ)
    ns = (64, 256, 1024, 4096, 16384, 65536, 262144)
    xs = np.array([0.1, 0.37, 0.5, 0.83])
    shifted = (AxisShape(l=1, alpha=0.5, beta=1.0), AxisShape(l=3, alpha=1.0, beta=2.0))
    # C per row: the largest n * max|n (S f - f) - V| over n, times about 1.25
    rows = [
        ("default", (AxisShape(), AxisShape()), "exp_sum", 0.48),
        ("default", (AxisShape(), AxisShape()), "sinprod", 6.5),
        ("(1,0.5,1),(3,1,2)", shifted, "exp_sum", 27.0),
        ("(1,0.5,1),(3,1,2)", shifted, "sinprod", 47.0),
    ]
    start = time.monotonic()
    ok, details = True, []
    for label, (shape1, shape2), name, c in rows:
        cat = build_catalog(shape1.l + 1.0, shape2.l + 1.0)
        f_grid = cat[name].fn(xs[:, None], xs[None, :])
        limit = _voronovskaja_limit(name, shape1, shape2, xs)
        devs = []
        for n in ns:
            op = build_operator(spec, n, shape1, shape2)
            err = apply_on_grid(op, cat[name].factors, xs, xs) - f_grid
            devs.append((n, float(np.max(np.abs(n * err - limit)))))
        worst = max(n * d for n, d in devs)
        order = empirical_order(devs)
        ok = ok and worst <= c and -1.1 <= order <= -0.9
        details.append(f"{label} {name}: max n*dev {worst:.3g} (C {c:g}), order {order:.3f}")
    elapsed = time.monotonic() - start
    verdict(
        "voronovskaja", ok,
        "; ".join(details) + f" (order required [-1.1, -0.9]; n=64..262144, 4x4 interior "
        f"points), {elapsed:.2f}s",
    )


def _bracket_sum(k: int, p: float, q: float) -> float:
    return math.fsum(p ** (k - 1 - i) * q ** i for i in range(k))


def _bracket_factorial(k: int, p: float, q: float) -> float:
    out = 1.0
    for j in range(1, k + 1):
        out *= _bracket_sum(j, p, q)
    return out


def _direct_weights_and_nodes(axis: AxisConfig, x: float):
    m = axis.n + axis.l
    p, q = axis.pq.p, axis.pq.q
    den = _bracket_sum(axis.n, p, q) + axis.beta
    fact_m = _bracket_factorial(m, p, q)
    weights = []
    ts = []
    for nu in range(m + 1):
        binom = fact_m / (_bracket_factorial(nu, p, q) * _bracket_factorial(m - nu, p, q))
        w = binom * p ** (0.5 * nu * (nu - 1) - 0.5 * m * (m - 1)) * x ** nu
        for j in range(m - nu):
            w *= p ** j - (q ** j) * x
        weights.append(w)
        ts.append((p ** (m - nu) * _bracket_sum(nu, p, q) + axis.alpha) / den)
    return weights, ts


def _direct_apply(op: BivariateOperator, f, x1: float, x2: float) -> float:
    w1, t1 = _direct_weights_and_nodes(op.axis1, x1)
    w2, t2 = _direct_weights_and_nodes(op.axis2, x2)
    return math.fsum(
        w1[i] * w2[j] * f(t1[i], t2[j]) for i in range(len(w1)) for j in range(len(w2))
    )


def test_reductions(verdict):
    ax1 = AxisConfig(n=5, l=2, pq=PQPair(0.9, 0.6), alpha=1.0, beta=1.5)
    ax2 = AxisConfig(n=4, l=1, pq=PQPair(0.95, 0.7), alpha=1.0, beta=1.5)
    base = BivariateOperator(ax1, ax2)
    xs = np.linspace(0.0, 1.0, 21)
    # each function as its factors, for apply_bivariate, and pointwise
    fns = [
        (((lambda t: t, lambda t: t),), lambda a, b: a * b),
        (((np.sin, np.cos),), lambda a, b: np.sin(a) * np.cos(b)),
    ]

    worst = 0.0
    ops = [
        base,
        reduce_operator(base, "q-schurer-stancu"),
        reduce_operator(base, "pq-bernstein-schurer"),
        reduce_operator(base, "pq-bernstein"),
    ]
    for op in ops:
        for factors, f in fns:
            for x1 in xs:
                for x2 in xs:
                    a = apply_bivariate(op, factors, float(x1), float(x2))
                    b = _direct_apply(op, f, float(x1), float(x2))
                    worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    ok = worst <= 1e-12

    red_q, red_bs, red_b = ops[1], ops[2], ops[3]
    params_ok = (
        red_q.axis1.pq == PQPair(1.0, 0.6)
        and red_q.axis2.pq == PQPair(1.0, 0.7)
        and (red_q.axis1.l, red_q.axis1.alpha, red_q.axis1.beta) == (2, 1.0, 1.5)
        and red_bs.axis1.pq == ax1.pq
        and red_bs.axis2.pq == ax2.pq
        and (red_bs.axis1.alpha, red_bs.axis1.beta) == (0.0, 0.0)
        and red_bs.axis1.l == 2
        and (red_b.axis1.l, red_b.axis1.alpha, red_b.axis1.beta) == (0, 0.0, 0.0)
        and red_b.axis2.n == 4
    )
    # e^(a - 2b) as its one product, so S and g round alike
    g_factors = ((np.exp, lambda t: np.exp(-2.0 * t)),)
    g = lambda a, b: np.exp(a) * np.exp(-2.0 * b)
    interp_ok = (
        apply_bivariate(red_b, g_factors, 0.0, 0.0) == g(0.0, 0.0)
        and apply_bivariate(red_b, g_factors, 1.0, 1.0) == g(1.0, 1.0)
        and apply_bivariate(red_b, g_factors, 1.0, 0.0) == g(1.0, 0.0)
    )
    verdict(
        "reductions", ok and params_ok and interp_ok,
        f"base + 3 reductions vs independent direct evaluator on 21x21 grid "
        f"x 2 functions, worst reldiff {worst:.2e} (tol 1e-12); parameter cuts "
        f"{'correct' if params_ok else 'WRONG'}; reduced endpoint interpolation "
        f"{'exact' if interp_ok else 'BROKEN'}",
    )


def test_lipschitz_collapse(verdict):
    from pqss.analysis import LipschitzSpec, MembershipError, lipschitz_bound

    cat = build_catalog(2.0, 2.0)
    axis = AxisConfig(n=6, l=1, pq=PQPair(0.9, 0.6), alpha=0.5, beta=1.0)
    op = BivariateOperator(axis, axis)
    spec = LipschitzSpec(1.0, 0.7, 0.9)
    xs = np.linspace(0.0, 1.0, 5)

    e11_rejected = False
    pair_shares_coordinate = False
    try:
        lipschitz_bound(op, cat["e11"], spec, xs, xs)
    except MembershipError:
        e11_rejected = True
        from pqss.analysis import lipschitz_violations

        a, b, _, _ = lipschitz_violations(cat["e11"], spec)[0]
        pair_shares_coordinate = a[0] == b[0] or a[1] == b[1]

    sum_rejected = False
    try:
        lipschitz_bound(op, cat["sum"], spec, xs, xs)
    except MembershipError:
        sum_rejected = True

    const_lhs, const_rhs = lipschitz_bound(op, cat["const1"], spec, xs, xs)
    add_spec = LipschitzSpec(1.0, 1.0, 1.0, additive=True)
    add_lhs, add_rhs = lipschitz_bound(op, cat["sum"], add_spec, xs, xs)
    const_worst = float(np.max(const_lhs - const_rhs))
    add_worst = float(np.max(add_lhs - add_rhs))

    ok = (
        e11_rejected and pair_shares_coordinate and sum_rejected
        and const_worst <= BOUND_SLACK and add_worst <= BOUND_SLACK
    )
    verdict(
        "lipschitz-collapse", ok,
        "product-form class admits only constants: e11 and sum rejected with a "
        "shared-coordinate witness pair; on a 5x5 grid of [0,1]^2 the const1 "
        f"member bound holds (worst lhs - rhs {const_worst:.2e}) and the "
        f"additive-form sum bound holds (worst lhs - rhs {add_worst:.2e}; "
        f"slack {BOUND_SLACK:g})",
    )


def test_cli_determinism(verdict, tmp_path, capfd):
    worked = [
        "--n1", "2", "--l1", "1", "--q1", "0.5", "--alpha1", "1.0", "--beta1", "2.0",
        "--n2", "2", "--l2", "1", "--q2", "0.5", "--alpha2", "1.0", "--beta2", "2.0",
    ]
    runs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        cmds = [
            ["verify", "--grid", "3", "--output", str(d / "moments.csv")],
            ["verify", "--grid", "3", "--format", "json", "--output", str(d / "moments.json")],
            ["converge", "--n-list", "16,32,64", "--grid", "11", "--output", str(d)],
            ["converge", "--n-list", "16,32,64", "--grid", "11", "--format", "json",
             "--output", str(d)],
            ["bounds", "--f", "exp_sum", "--grid", "7", *worked,
             "--output", str(d / "bounds.csv")],
        ]
        for cmd in cmds:
            rc = cli_main(cmd)
            capfd.readouterr()
            assert rc == 0, cmd
        runs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    same_names = sorted(runs[0]) == sorted(runs[1])
    same_bytes = same_names and all(runs[0][k] == runs[1][k] for k in runs[0])
    n_files = len(runs[0])
    verdict(
        "cli-determinism", same_names and same_bytes,
        f"{n_files} report files (verify csv+json, converge csv+json, bounds) "
        "byte-identical across independent runs",
    )
