"""Workloads of the hemisystems benchmark and the closed loop that runs them.

One caller in one process, single-threaded: set the rung up several times
from cold, then stream seeded masks through emit (assemble, index
verification, certificate text) and check (parse, header, resolve, index
verification) until the run's seconds are used up.  family-q3 also recounts
every mask with the reduction verifier.  Every result is checked, and a
certificate with one member swapped for its tau-partner must be rejected.

Set-up times are reported as the median over the run's rounds.  Emit and
check times, and their layers, are reported as the fastest call of the run:
other tenants of a shared machine slow whole seconds of a run by up to 2x,
which moves a run's median far more than its fastest call (README.md).

The package is driven only through the public calls of its modules; the
benchmark makes the masks and the package receives nothing else.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from hemisystems import cli, gf, groups, hemi, linform, quadric

from .spans import NullTracer, Tracer


@dataclass(frozen=True)
class Rung:
    """One (q, d) configuration, with values recorded at the benchmark's commit."""

    p: int
    k: int
    d: int
    setups: int  # cold prepare() calls per run; setup_s is their median
    recount: bool  # run the reduction verifier on every mask
    m: int
    n_b: int
    point_orbits: int
    digests: tuple  # sha256 of the certificates of masks 0 and 2^m - 1

    @property
    def q(self) -> int:
        return self.p**self.k


RUNGS = {
    "rank3-q5": Rung(
        5, 1, 3, setups=5, recount=False, m=234, n_b=468, point_orbits=209,
        digests=(
            "77ddec5bc16f85f3031c1a2ef1dac7fd046c9a210a5ceac94bcc27f50e0a8c67",
            "cfbcaee75fefb2eba259c30fecf17f9d061c2f444e82485479b77e89a2938798",
        ),
    ),
    "plane-q25": Rung(
        5, 2, 2, setups=2, recount=False, m=14, n_b=28, point_orbits=27,
        digests=(
            "f01b6706fb25f13f84d4e1d8127e992167dcaf98a58b0a1dd0baba34f99cc54c",
            "a21e0825f7b6d52e305b6c08accb3afa4ebcc924ae321b354b1defc9c85d43a9",
        ),
    ),
    "family-q3": Rung(
        3, 1, 3, setups=41, recount=True, m=60, n_b=120, point_orbits=61,
        digests=(
            "8a67272a8bca8ffa443ca74214c4eda3d1fc1f19103da84781396a93496152ef",
            "8ebd3f7196080a465b23eeada46199ff31585eb7e1be04e29babe1f6f1394b13",
        ),
    ),
}

# Calls the package makes inside the public steps of prepare(); the traced
# run wraps them so they appear as children of the step that made them.
INNER_CALLS = (
    (quadric, "enumerate_points", "quadric.enumerate_points"),
    (quadric, "enumerate_maximals", "quadric.enumerate_maximals"),
    (quadric.QuadricModel, "maximal_permutation", "quadric.maximal_permutation"),
    (hemi, "partition", "orbits.partition"),
)

SETUP_SPANS = (
    "gf.field_make",
    "linform.standard_model",
    "quadric.enumerate_points",
    "quadric.enumerate_maximals",
    "quadric.model",
    "groups.omega_w",
    "groups.group_a",
    "hemi.resolve_actions",
    "quadric.maximal_permutation",
    "orbits.partition",
    "hemi.ab_check",
)
CALL_SPANS = (
    "hemi.assemble",
    "hemi.verify_index",
    "cli.certificate_text",
    "cli.parse_certificate",
    "cli.check_certificate_header",
    "cli.resolve_members",
)


def closed_forms(q: int, d: int) -> dict:
    """Points, maximals and group orders of Q(2d, q), B = Omega_3(q), A = <B, tau>."""
    b = q * (q * q - 1) // 2
    return {
        "points": (q ** (2 * d) - 1) // (q - 1),
        "maximals": math.prod(q**i + 1 for i in range(1, d + 1)),
        "b_order": b,
        "a_order": 2 * b,
    }


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_field(rung: Rung) -> gf.Field:
    """field_make with its in-process memo cleared, so tables are rebuilt."""
    clear = getattr(getattr(gf, "_field_cached", None), "cache_clear", None)
    if clear is not None:
        clear()
    return gf.field_make(rung.p, rung.k)


def masks(m: int, seed: int):
    """Masks 0 and 2^m - 1, whose certificates have recorded digests, then seeded ones."""
    yield 0
    yield (1 << m) - 1
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(m)


def tail(values: list) -> dict:
    """Sample count, median, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    out = {"n": len(values), "min": ordered[0], "median": statistics.median(values)}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}"] = ordered[math.ceil(pct / 100 * len(values)) - 1]
            break
    return out


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def gate_setup(rung: Rung, prep: hemi.Prepared) -> list[str]:
    """Mismatches of a prepared rung against closed forms and recorded values."""
    want = closed_forms(rung.q, rung.d)
    rep = prep.report
    got = {
        "points": prep.qm.num_points,
        "maximals": prep.qm.num_maximals,
        "b_order": prep.b.order,
        "a_order": prep.a.order,
    }
    bad = [f"{k} {got[k]} != {want[k]}" for k in want if got[k] != want[k]]
    if rep.a_order != want["a_order"]:
        bad.append(f"ab_check a_order {rep.a_order} != {want['a_order']}")
    if not rep.ok:
        bad.append(f"AB hypotheses failed: {rep.witness}")
    for name, g, w in (
        ("m", rep.m, rung.m),
        ("n_b", rep.n_b_maximal_orbits, rung.n_b),
        ("point_orbits", rep.n_point_orbits, rung.point_orbits),
    ):
        if g != w:
            bad.append(f"{name} {g} != recorded {w}")
    return bad


def same_preparation(x: hemi.Prepared, y: hemi.Prepared) -> bool:
    rx, ry = x.report, y.report
    return (
        np.array_equal(x.qm.points, y.qm.points)
        and np.array_equal(x.qm.maximal_bases, y.qm.maximal_bases)
        and np.array_equal(x.qm.maximal_points, y.qm.maximal_points)
        and (x.b.order, x.a.order) == (y.b.order, y.a.order)
        and rx.ok == ry.ok
        and rx.split.pairs == ry.split.pairs
        and np.array_equal(rx.split.partition.orbit_of, ry.split.partition.orbit_of)
    )


def setup_untraced(rung: Rung) -> tuple:
    t0 = perf_counter()
    prep = hemi.prepare(cold_field(rung), rung.d)
    return prep, perf_counter() - t0


def setup_traced(rung: Rung, tr: Tracer, rss: dict) -> tuple:
    """prepare() rebuilt from its public steps, one span per step."""
    with tr.span("bench.setup") as root:
        with tr.span("gf.field_make"):
            F = cold_field(rung)
        with tr.span("linform.standard_model"):
            model = linform.standard_model(F, rung.d)
        with tr.span("quadric.model"):
            qm = quadric.QuadricModel(model)
        rss.setdefault("quadric.rss_mb", rss_mb())
        with tr.span("groups.omega_w"):
            b = groups.omega_w(model)
        with tr.span("groups.tau"):
            t = groups.tau(model)
        with tr.span("groups.group_a"):
            a = groups.group_a(model, b, t)
        rss.setdefault("groups.rss_mb", rss_mb())
        with tr.span("hemi.resolve_actions"):
            actions = hemi.resolve_actions(qm, b, t)
        with tr.span("hemi.ab_check"):
            report = hemi.ab_check(qm, b, t, actions)
    prep = hemi.Prepared(
        field=F, model=model, qm=qm, b=b, tau_elt=t, a=a, actions=actions, report=report
    )
    return prep, root[2] - root[1]


def emit(prep: hemi.Prepared, mask: int, tr) -> tuple:
    """What `construct` does after prepare(): assemble, verify, write."""
    with tr.span("bench.emit"):
        with tr.span("hemi.assemble"):
            ids = hemi.assemble(prep.report.split, mask)
        with tr.span("hemi.verify_index"):
            verdict = hemi.verify_hemisystem(prep.qm, ids)
        with tr.span("cli.certificate_text"):
            text = cli.certificate_text(prep, mask, ids)
    return ids, verdict, text


def check(qm: quadric.QuadricModel, text: str, tr) -> tuple:
    """What `verify` does with a reused model; returns (ids, reason, verdict)."""
    with tr.span("bench.check"):
        with tr.span("cli.parse_certificate"):
            cert = cli.parse_certificate(text)
        with tr.span("cli.check_certificate_header"):
            cli.check_certificate_header(cert, qm)
        with tr.span("cli.resolve_members"):
            ids, reason = cli.resolve_members(cert, qm)
        if ids is None:
            return None, reason, None
        with tr.span("hemi.verify_index"):
            verdict = hemi.verify_hemisystem(qm, ids)
    return ids, None, verdict


def recount(qm: quadric.QuadricModel, ids, tr):
    with tr.span("bench.recount"), tr.span("hemi.verify_reduction"):
        return hemi.verify_hemisystem(qm, ids, slow=True, jobs=1)


def tampered(prep: hemi.Prepared, mask: int, text: str) -> str | None:
    """The certificate with one member replaced by a maximal of the paired orbit."""
    split = prep.report.split
    low, high = split.pairs[0]
    chosen, other = (high, low) if mask & 1 else (low, high)
    F, bases = prep.field, prep.qm.maximal_bases
    old = f"maximal {linform.format_matrix(F, bases[split.partition.members[chosen][0]])}\n"
    new = f"maximal {linform.format_matrix(F, bases[split.partition.members[other][0]])}\n"
    return text.replace(old, new, 1) if old in text else None


class Runner:
    """One run of one workload: set up, stream masks, gate every result."""

    def __init__(self, rung: Rung, seed: int, seconds: float, trace: bool):
        self.rung = rung
        self.seed = seed
        self.seconds = seconds
        self.tr = Tracer() if trace else NullTracer()
        self.tally = Tally()
        self.times: dict[str, list] = {"setup_s": [], "emit_s": [], "check_s": []}
        if rung.recount:
            self.times["recount_s"] = []
        self.traced_setup: list[float] = []
        self.setup_runs: list[int] = []
        self.rss: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.tamper = "not run"

    # -- set-up

    def setup(self) -> hemi.Prepared:
        for _ in range(self.rung.setups):
            prep = None
            gc.collect()
            if self.tr.enabled:
                prep = self._setup_pair()
            else:
                prep, dt = setup_untraced(self.rung)
                self.times["setup_s"].append(dt)
                self._gate(prep)
        return prep

    def _setup_pair(self) -> hemi.Prepared:
        """Traced build then untraced prepare(); their difference is the overhead."""
        self.tr.run += 1
        self.setup_runs.append(self.tr.run)
        with self.tr.patched(INNER_CALLS):
            traced, dt = setup_traced(self.rung, self.tr, self.rss)
        self.traced_setup.append(dt)
        self._gate(traced)
        plain, dt = setup_untraced(self.rung)
        self.times["setup_s"].append(dt)
        self.tally.record(
            same_preparation(traced, plain), "traced build differs from prepare()"
        )
        return traced

    def _gate(self, prep: hemi.Prepared) -> None:
        bad = gate_setup(self.rung, prep)
        self.tally.record(not bad, "setup: " + "; ".join(bad))
        rep = prep.report
        self.counts.update({
            "quadric.points": prep.qm.num_points,
            "quadric.maximals": prep.qm.num_maximals,
            "groups.b_order": prep.b.order,
            "groups.a_order": prep.a.order,
            "hemi.point_orbits": rep.n_point_orbits,
            "hemi.n_b_orbits": rep.n_b_maximal_orbits,
            "hemi.m": rep.m,
        })

    # -- the mask stream

    def stream(self, prep: hemi.Prepared) -> None:
        rung, tr, record = self.rung, self.tr, self.tally.record
        digests = dict(zip((0, (1 << rung.m) - 1), rung.digests))
        first = None
        deadline = perf_counter() + self.seconds
        for i, mask in enumerate(masks(rung.m, self.seed)):
            if i >= len(digests) and perf_counter() >= deadline:
                break
            tr.run += 1
            try:
                t0 = perf_counter()
                ids, verdict, text = emit(prep, mask, tr)
                self.times["emit_s"].append(perf_counter() - t0)
            except Exception as exc:  # a failed operation, counted and reported
                record(False, f"emit {mask:x}: {exc!r}")
                continue
            ok = verdict.ok
            if mask in digests:
                ok = ok and hashlib.sha256(text.encode()).hexdigest() == digests[mask]
                if i == 1:
                    self.counts["cli.certificate_bytes"] = len(text)
            record(ok, f"emit {mask:x}: verdict or certificate digest wrong")
            first = first or (mask, text)

            try:
                t0 = perf_counter()
                rids, reason, verdict = check(prep.qm, text, tr)
                self.times["check_s"].append(perf_counter() - t0)
            except Exception as exc:
                record(False, f"check {mask:x}: {exc!r}")
                continue
            record(
                reason is None and verdict.ok and np.array_equal(rids, ids),
                f"check {mask:x}: {reason or 'verdict or resolved ids wrong'}",
            )

            if rung.recount:
                try:
                    t0 = perf_counter()
                    slow = recount(prep.qm, ids, tr)
                    self.times["recount_s"].append(perf_counter() - t0)
                except Exception as exc:
                    record(False, f"recount {mask:x}: {exc!r}")
                    continue
                record(
                    slow.ok and slow.histogram == verdict.histogram,
                    f"recount {mask:x}: degrees differ from the index path",
                )
        if first is not None:
            self.probe(prep, *first)

    def probe(self, prep: hemi.Prepared, mask: int, text: str) -> None:
        """A check that accepts a tampered certificate is a failed operation."""
        bad = tampered(prep, mask, text)
        if bad is None:
            self.tamper = "member line not found"
            self.tally.record(False, f"tamper probe: {self.tamper}")
            return
        try:
            ids, _, verdict = check(prep.qm, bad, NullTracer())
        except Exception as exc:
            self.tamper = f"raised {exc!r}"
            self.tally.record(False, f"tamper probe: {self.tamper}")
            return
        rejected = ids is None or not verdict.ok
        self.tamper = "rejected" if rejected else "accepted"
        self.tally.record(rejected, f"tamper probe: {self.tamper}")

    def run(self) -> None:
        prep = self.setup()
        self.stream(prep)

    # -- results

    def end_to_end(self) -> dict:
        return {
            "setup_s": {"value": statistics.median(self.times["setup_s"]), "unit": "s"},
            "emit_s": {"value": min(self.times["emit_s"]), "unit": "s"},
            "check_s": {"value": min(self.times["check_s"]), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb(), "unit": "MB"},
        }

    def per_layer(self) -> dict:
        tr = self.tr
        own = tr.self_times()
        setup_runs = set(self.setup_runs)
        by_round: dict[str, dict] = {}
        by_call: dict[str, list] = {}
        self_round: dict[str, dict] = {}
        for (name, start, end, _, run), s in zip(tr.spans, own):
            if run in setup_runs:
                r = by_round.setdefault(name, {})
                r[run] = r.get(run, 0.0) + end - start
                sr = self_round.setdefault(name, {})
                sr[run] = sr.get(run, 0.0) + s
            else:
                by_call.setdefault(name, []).append(end - start)

        def per_round(table, name):
            return statistics.median(table.get(name, {}).get(r, 0.0) for r in setup_runs)

        out = {f"{n}_s": per_round(by_round, n) for n in SETUP_SPANS}
        out["quadric.index_self_s"] = per_round(self_round, "quadric.model")
        out["hemi.resolve_actions_self_s"] = per_round(self_round, "hemi.resolve_actions")
        out.update({f"{n}_s": min(by_call[n]) for n in CALL_SPANS})
        traced = statistics.median(self.traced_setup)
        out["trace.setup_s"] = traced
        out["trace.setup_gap_s"] = per_round(self_round, "bench.setup")
        out["trace.overhead_s"] = traced - statistics.median(self.times["setup_s"])
        metrics = {k: {"value": v, "unit": "s"} for k, v in out.items()}
        metrics.update({k: {"value": v, "unit": "MB"} for k, v in self.rss.items()})
        metrics.update({k: {"value": v, "unit": "count"} for k, v in self.counts.items()})
        return metrics

    def report(self) -> dict:
        tally = self.tally
        out = {
            "samples": {k: tail(v) for k, v in self.times.items() if v},
            "error_rate": tally.failed / max(tally.attempted, 1),
            "errors": tally.errors,
            "tamper_probe": self.tamper,
        }
        if self.tr.enabled:
            out["spans"] = self.tr.summary()
        return out
