"""One benchmark pass: set up, run the timed part, check every output.

Run as a script in a fresh interpreter, so every pass pays the cold
builds a CLI user pays and the package's internal caches start empty:

    PYTHONPATH=src python3 benchmarks/passes.py --workload groebner_strict \
        --seed 0 --trace 0 --pass-id 0 --work .bench_work/tmp

It prints one JSON line: the monotonic clock at the start of the timed
part (so the caller can measure set-up from the moment it spawned the
process), the timed wall time, the process's own peak RSS, the number of
operations attempted and failed, and, when traced, the per-layer figures
folded from the spans.  An operation is one CLI command, one re-checked
generator, one lattice level, one verify call or one membership query; it
fails when it raises, returns the wrong exit code or fails its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import resource
import sys
import time
from pathlib import Path

from clawtoric import cli, core, groebner, ideal, lattice, matrix, oracle
from queries import kernel_queries
from spans import Tracer, span_cost

DEFAULT_SEED = 0

# Pinned outputs of the seed package.  The digests cover the whole files.
IDEAL_JSON_SHA256 = "e029610e69726e71b7fd458e3f3180dd9b0771a0d4dd72fbc882afc58302a711"
EXPORT_CAS_SHA256 = "981e9b583d9105ce7c2a09a4ada4000ed45397e240e6e935354bf26a3f14869a"
STRICT_PLAIN_SHA256 = "7fea30a1d526639767b07d9be73ccda39718321fc39bdf6f17c0be8a753220c1"
STRICT_CERTIFICATE = {
    "pairs total": 550_725,
    "reduced to zero": 508_849,
    "s-polynomial zero": 0,
    "stuck": 41_876,
    "max reduction steps": 20,
}
FAST_PAIRS_G7 = 13_017_753
QUERY_N = 8
QUERIES_PER_DEGREE = 5_000
# degree-3 queries of DEFAULT_SEED that reduce to zero under G_8
DEFAULT_SEED_DEGREE3_ZERO = 4_635

# Span names folded into each layer.  A traced pass reports every layer's
# self time (``<layer>.s``) and span count (``<layer>.calls``) and every
# count below; a layer or count the workload does not reach reads 0.
LAYER_SPANS = {
    "ideal.build": ("ideal.build_generators",),
    "ideal.sorted": ("ideal.sorted_generators",),
    "cli.render": ("cli.main",),
    "core.in_kernel": ("core.in_kernel",),
    "core.project": ("core.project",),
    "ideal.predicates": ("ideal.fixed_positions", "ideal.is_fully_complementary"),
    "groebner.verify": ("groebner.verify_groebner",),
    "groebner.reducer_setup": ("groebner.BinomialReducer",),
    "groebner.in_ideal": ("groebner.in_ideal",),
    "lattice.build": ("lattice.build_lattice_basis",),
    "matrix.build": ("matrix.build_matrix",),
    "oracle.rank": ("oracle.exact_rank", "oracle.nullspace_dimension"),
}
COUNTS = (
    "core.in_kernel",
    "core.project",
    "ideal.predicates",
    "groebner.in_ideal",
    "oracle.rank",
)
COUNTS = (
    "ideal.generators",
    "cli.bytes_out",
    "groebner.pairs",
    "groebner.pairs_reduced",
    "groebner.stuck",
    "groebner.max_steps",
    "groebner.skip_ratio",
    "groebner.in_ideal.zero_ratio",
    "lattice.rows",
)


def total_count(n: int) -> int:
    """|G_n| by the closed form (4^n - 3*3^n + 3*2^n - 1)/2."""
    return (4**n - 3 * 3**n + 3 * 2**n - 1) // 2


def fixed_leaf_count(n: int) -> int:
    """Fixed-leaf share of G_n: (4^n - 3*3^n + 2*2^n + 2 + (-1)^n)/2."""
    return (4**n - 3 * 3**n + 2 * 2**n + 2 + (-1) ** n) // 2


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def attempt(fn, *args, **kwargs):
    """fn's result, or the exception it raised; the caller tallies it."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


class Pass:
    """Clock, failure tally and layer counts of one pass."""

    def __init__(self, tracer: Tracer, work: Path):
        self.tr = tracer
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0)
        self.timed_start = self.wall_s = 0.0
        self.peak_rss_kb = 0

    def start(self) -> None:
        self.timed_start = time.monotonic()
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def tally(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.errors.extend(failures[: 20 - len(self.errors)])

    def check(self, ok: bool, what: str) -> None:
        self.tally(1, [] if ok else [what])

    def layers(self) -> dict[str, float]:
        totals = self.tr.self_times()
        out: dict[str, float] = {}
        for layer, names in LAYER_SPANS.items():
            out[f"{layer}.s"] = sum(totals.get(k, (0.0, 0))[0] for k in names)
            out[f"{layer}.calls"] = sum(totals.get(k, (0.0, 0))[1] for k in names)
        out.update(self.counts)
        render_s, verify_s = out["cli.render.s"], out["groebner.verify.s"]
        out["cli.bytes_per_s"] = out["cli.bytes_out"] / render_s if render_s else 0.0
        out["groebner.pairs_per_s"] = out["groebner.pairs"] / verify_s if verify_s else 0.0
        # what the spans cost, estimated apart from the noisy traced-minus-untraced time
        out["trace.wrapper_s"] = span_cost() * len(self.tr.spans)
        return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def ideal_export(p: Pass, seed: int) -> None:
    """Hand G_9 to a CAS: the JSON ideal, then the cas-script export."""
    build = p.tr.wrap("ideal.build_generators", ideal.build_generators)
    cli_main = p.tr.wrap("cli.main", cli.main)
    out_json, out_cas = p.work / "ideal.json", p.work / "export.cas"
    n = 9

    p.start()
    if p.tr.enabled:
        # built here so that the build shows as its own span, not inside cli.main
        gens = build(n)
    rc_json = attempt(cli_main, ["ideal", "--n", str(n), "--format", "json", "--out", str(out_json)])
    rc_cas = attempt(cli_main, ["export", "--n", str(n), "--format", "cas-script", "--out", str(out_cas)])
    p.stop()

    head = out_json.read_bytes()[:64] if out_json.exists() else b""
    total = re.search(rb'"total": (\d+)', head)
    p.check(
        rc_json == 0
        and total is not None
        and int(total.group(1)) == total_count(n)
        and sha256(out_json) == IDEAL_JSON_SHA256,
        f"ideal --n {n} --format json: exit {rc_json!r} or output differs",
    )
    p.check(
        rc_cas == 0 and sha256(out_cas) == EXPORT_CAS_SHA256,
        f"export --n {n} --format cas-script: exit {rc_cas!r} or output differs",
    )
    p.counts["cli.bytes_out"] = sum(f.stat().st_size for f in (out_json, out_cas) if f.exists())
    if p.tr.enabled:
        # the CLI sorts inside cli.main; one traced sort after the timed part
        # shows what that sort costs without adding it to the traced wall time
        ordered = p.tr.wrap("ideal.sorted_generators", gens.sorted_generators)()
        p.check(
            len(gens) == total_count(n)
            and len(gens.fixed_leaf) == fixed_leaf_count(n)
            and len(ordered) == len(gens),
            f"build_generators({n}) does not match the closed form",
        )
        p.counts["ideal.generators"] = len(gens)


def groebner_strict(p: Pass, seed: int) -> None:
    """Strict Buchberger check of G_6 through the CLI; NOT GROEBNER is expected."""
    n = 6
    gens = p.tr.wrap("ideal.build_generators", ideal.build_generators)(n)
    p.counts["ideal.generators"] = len(gens)
    out = p.work / "verify.txt"

    p.start()
    if p.tr.enabled:
        # the CLI's own path minus rendering, so verify_groebner gets its span
        basis = p.tr.wrap("ideal.sorted_generators", gens.sorted_generators)()
        cert = p.tr.wrap("groebner.verify_groebner", groebner.verify_groebner)(basis, strict=True)
    else:
        rc = attempt(cli.main, ["verify-groebner", "--n", str(n), "--strict", "--out", str(out)])
    p.stop()

    if p.tr.enabled:
        got = {
            "pairs total": cert.pairs_total,
            "reduced to zero": cert.reduced,
            "s-polynomial zero": cert.spoly_zero,
            "stuck": len(cert.failures),
            "max reduction steps": cert.max_steps,
        }
        p.check(
            cert.strict and not cert.is_groebner and got == STRICT_CERTIFICATE,
            f"strict certificate of G_{n}: {got}",
        )
        record_certificate(p, cert)
        return
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    got = {k: int(v) for k, v in re.findall(r"^([a-z -]+?):\s+(\d+)$", text, re.M)}
    stuck = re.search(r"NOT GROEBNER \((\d+) stuck pairs\)", text)
    if stuck:
        got["stuck"] = int(stuck.group(1))
    got = {k: v for k, v in got.items() if k in STRICT_CERTIFICATE}
    p.check(
        rc == 1 and got == STRICT_CERTIFICATE and sha256(out) == STRICT_PLAIN_SHA256,
        f"verify-groebner --n {n} --strict: exit {rc!r}, certificate {got}",
    )


def record_certificate(p: Pass, cert) -> None:
    p.counts["groebner.pairs"] = cert.pairs_total
    p.counts["groebner.pairs_reduced"] = cert.reduced
    p.counts["groebner.stuck"] = len(cert.failures)
    p.counts["groebner.max_steps"] = cert.max_steps
    skipped = cert.skipped_coprime + cert.skipped_shared_trailing
    p.counts["groebner.skip_ratio"] = skipped / cert.pairs_total if cert.pairs_total else 0.0


def membership_queries(seed: int) -> list[tuple[int, core.Binomial]]:
    """The seeded degree-2 and degree-3 kernel binomials, as (degree, binomial)."""
    rng = random.Random(seed)

    def side(values: tuple[int, ...]) -> core.Monomial:
        return core.Monomial(QUERY_N, tuple(core.Word(v, QUERY_N) for v in values))

    return [
        (degree, core.Binomial(side(plus), side(minus)))
        for degree in (2, 3)
        for plus, minus in kernel_queries(QUERY_N, degree, QUERIES_PER_DEGREE, rng)
    ]


def soundness_gate(p: Pass, seed: int) -> None:
    """Kernel re-check, lattice ranks, fast-mode verify and membership reads."""
    tr = p.tr
    build = tr.wrap("ideal.build_generators", ideal.build_generators)
    gens = {n: build(n) for n in range(3, 10)}
    p.counts["ideal.generators"] = sum(len(g) for g in gens.values())
    queries = membership_queries(seed)

    fixed_positions = tr.wrap("ideal.fixed_positions", ideal.fixed_positions)
    fully_complementary = tr.wrap("ideal.is_fully_complementary", ideal.is_fully_complementary)
    project = tr.wrap("core.project", core.project)
    in_kernel = tr.wrap("core.in_kernel", core.in_kernel)
    build_matrix = tr.wrap("matrix.build_matrix", matrix.build_matrix)
    build_lattice_basis = tr.wrap("lattice.build_lattice_basis", lattice.build_lattice_basis)
    exact_rank = tr.wrap("oracle.exact_rank", oracle.exact_rank)
    nullspace_dimension = tr.wrap("oracle.nullspace_dimension", oracle.nullspace_dimension)
    verify_groebner = tr.wrap("groebner.verify_groebner", groebner.verify_groebner)
    reducer_class = tr.wrap("groebner.BinomialReducer", groebner.BinomialReducer)
    in_ideal = tr.wrap("groebner.in_ideal", groebner.in_ideal)

    p.start()
    bad_generators: list[str] = []
    for n, g in gens.items():
        for b in g.fixed_leaf:
            try:
                positions = fixed_positions(b)
                shadow = project(b, positions[0]) if positions else None
                ok = bool(in_kernel(b) and positions and shadow is not None and in_kernel(shadow))
            except Exception:
                ok = False
            if not ok:
                bad_generators.append(f"re-check failed, n={n}: fixed-leaf {b}")
        for b in g.complementary:
            try:
                ok = bool(in_kernel(b) and fully_complementary(b))
            except Exception:
                ok = False
            if not ok:
                bad_generators.append(f"re-check failed, n={n}: complementary {b}")
    levels = []
    for n in range(3, 13):
        try:
            incidence = build_matrix(n)
            basis = build_lattice_basis(n)
            levels.append((n, basis.shape[0], exact_rank(basis.rows), nullspace_dimension(incidence)))
        except Exception as exc:
            levels.append((n, exc))
    cert = attempt(verify_groebner, tr.wrap("ideal.sorted_generators", gens[7].sorted_generators)())
    reducer = attempt(reducer_class, tr.wrap("ideal.sorted_generators", gens[8].sorted_generators)())
    answers = [attempt(in_ideal, b, reducer) for _, b in queries]
    p.stop()

    p.tally(p.counts["ideal.generators"], bad_generators)
    for level in levels:
        n = level[0]
        kernel_dim = (1 << n) - n - 2
        p.check(level[1:] == (kernel_dim,) * 3, f"lattice level n={n}: rows, rank, nullity {level[1:]}")
        p.counts["lattice.rows"] += kernel_dim
    ok = isinstance(cert, groebner.GroebnerCertificate)
    p.check(
        ok
        and not cert.strict
        and not cert.is_groebner
        and cert.pairs_total == FAST_PAIRS_G7
        and cert.reduced + cert.spoly_zero + cert.skipped_coprime
        + cert.skipped_shared_trailing + len(cert.failures) == cert.pairs_total,
        f"fast-mode verify of G_7: {cert!r}" if not ok else "fast-mode verify of G_7: counts differ",
    )
    if ok:
        record_certificate(p, cert)
    # every degree-2 kernel binomial reduces to zero under G_8 (checked
    # exhaustively in the benchmark's tests); degree-3 answers are only tallied
    p.tally(len(queries), [
        f"degree-{degree} query {b} -> {answer!r}"
        for (degree, b), answer in zip(queries, answers)
        if not (answer is True if degree == 2 else isinstance(answer, bool))
    ])
    zero3 = sum(answer is True for (degree, _), answer in zip(queries, answers) if degree == 3)
    p.counts["groebner.in_ideal.zero_ratio"] = zero3 / QUERIES_PER_DEGREE
    if seed == DEFAULT_SEED:
        p.check(zero3 == DEFAULT_SEED_DEGREE3_ZERO, f"seed {seed}: {zero3} degree-3 queries reduce to zero")


WORKLOADS = {f.__name__: f for f in (ideal_export, groebner_strict, soundness_gate)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    p = Pass(Tracer(args.trace == 1, args.pass_id), args.work)
    WORKLOADS[args.workload](p, args.seed)
    record = {
        "pass_id": args.pass_id,
        "traced": p.tr.enabled,
        "timed_start": p.timed_start,
        "wall_s": p.wall_s,
        "peak_rss_kb": p.peak_rss_kb,
        "attempted": p.attempted,
        "failed": p.failed,
        "errors": p.errors,
        "spans": len(p.tr.spans),
        "layers": p.layers() if p.tr.enabled else None,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
