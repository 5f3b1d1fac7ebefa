"""Command-line front end and serialization to plain text, CSV, JSON, and
CAS scripts.

Every command is deterministic: the same arguments produce byte-identical
output.  Exit codes: 0 success (and verified), 1 failed verification,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import MAX_LEAVES, Binomial, Monomial, Word, _lead_key, in_kernel
from .groebner import BinomialReducer, GroebnerCertificate, verify_groebner
from .ideal import Rows, build_generators, generator_count
from .lattice import (
    LatticeBasis,
    build_lattice_basis,
    expected_row_count,
    lattice_binomials,
)
from .matrix import IncidenceMatrix, build_matrix
from .oracle import enumerate_quadratic_kernel, exact_rank, nullspace_dimension

ENV_CAP = "CLAWTORIC_MAX_LEAVES"

# verify-groebner --format json records every S-pair, about 1.3 KiB of peak
# memory each (n = 6: 550 725 pairs, 688 MiB); n = 7 has 13 017 753
MAX_RECORDED_PAIRS = 2_000_000

# ideal and export hold all of G_n and its whole text in memory; n = 10
# (437 250 generators) takes 2 s and 285 MiB for JSON, n = 11 (1 834 503)
# 11 s and 1.05 GiB, and n = 12 (7 597 590) would take about four times that
MAX_GENERATORS = 2_000_000

_FORMATS = {
    "matrix": ("plain", "csv", "json"),
    "lattice": ("plain", "csv", "json", "cas-script"),
    "ideal": ("plain", "csv", "json", "cas-script"),
    "verify-groebner": ("plain", "json"),
    "oracle-compare": ("plain", "json"),
    "export": ("json", "cas-script"),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int
    format: str = "plain"
    strict: bool = False
    cap: int = MAX_LEAVES
    out: str | None = None


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def binomial_to_dict(b: Binomial) -> dict:
    return {
        "n": b.n,
        "plus": [str(w) for w in b.plus.words],
        "minus": [str(w) for w in b.minus.words],
    }


def binomial_from_dict(data: dict) -> Binomial:
    n = data["n"]
    plus = Monomial(n, tuple(Word.from_string(s) for s in data["plus"]))
    minus = Monomial(n, tuple(Word.from_string(s) for s in data["minus"]))
    return Binomial(plus, minus)


def sorted_group(group: Iterable[Binomial]) -> list[Binomial]:
    return sorted(group, key=_lead_key)


def matrix_to_csv(matrix: IncidenceMatrix) -> str:
    lines = ["label," + ",".join(str(w) for w in matrix.col_labels)]
    for label, row in zip(matrix.row_labels, matrix.entries):
        lines.append(str(label) + "," + ",".join(str(int(e)) for e in row))
    return "\n".join(lines) + "\n"


def lattice_to_csv(basis: LatticeBasis) -> str:
    lines = ["row," + ",".join(str(w) for w in basis.col_labels)]
    for r, row in enumerate(basis.rows, start=1):
        lines.append(f"{r}," + ",".join(str(int(e)) for e in row))
    return "\n".join(lines) + "\n"


def cas_script(generators: Sequence[Binomial | str], n: int, name: str) -> str:
    """Singular-style script declaring the coordinate ring and the ideal.

    Each generator is written as its string form, so pre-rendered binomial
    texts serve as well as ``Binomial`` objects.
    """
    variables = ", ".join(f"q_{v:0{n}b}" for v in range(1 << n))
    lines = [
        f"// {name}, n = {n}: {len(generators)} generators over {1 << n} coordinates",
        f"ring r = 0, ({variables}), lp;",
    ]
    if not generators:
        lines.append("ideal I = 0;")
        return "\n".join(lines) + "\n"
    lines.append("ideal I =")
    body = ",\n".join(f"  {b}" for b in generators)
    return "\n".join(lines) + "\n" + body + ";\n"


def _json_doc(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# per-command rendering
# ---------------------------------------------------------------------------


def _render_matrix(config: RunConfig) -> str:
    matrix = build_matrix(config.n, cap=config.cap)
    if config.format == "csv":
        return matrix_to_csv(matrix)
    if config.format == "json":
        return _json_doc(
            {
                "n": matrix.n,
                "row_labels": [str(lab) for lab in matrix.row_labels],
                "column_words": [str(w) for w in matrix.col_labels],
                "entries": matrix.entries.tolist(),
            }
        )
    width = max(len(str(lab)) for lab in matrix.row_labels)
    cell = max(matrix.n, 1)
    head = " " * width + " " + " ".join(str(w) for w in matrix.col_labels)
    lines = [
        f"incidence matrix, n = {matrix.n}: "
        f"{matrix.shape[0]} rows x {matrix.shape[1]} columns",
        head,
    ]
    for label, row in zip(matrix.row_labels, matrix.entries):
        lines.append(
            f"{str(label):<{width}} " + " ".join(f"{int(e):>{cell}}" for e in row)
        )
    return "\n".join(lines) + "\n"


def _render_lattice(config: RunConfig) -> str:
    basis = build_lattice_basis(config.n, cap=config.cap)
    if config.format == "csv":
        return lattice_to_csv(basis)
    binomials = lattice_binomials(basis)
    if config.format == "json":
        return _json_doc(
            {
                "n": basis.n,
                "column_words": [str(w) for w in basis.col_labels],
                "rows": basis.rows.tolist(),
                "binomials": [binomial_to_dict(b) for b in binomials],
            }
        )
    if config.format == "cas-script":
        return cas_script(binomials, basis.n, "lattice basis ideal")
    cell = max(basis.n, 2)
    lines = [
        f"lattice basis, n = {basis.n}: "
        f"{basis.shape[0]} rows x {basis.shape[1]} columns",
        " ".join(str(w) for w in basis.col_labels),
    ]
    for row in basis.rows:
        lines.append(" ".join(f"{int(e):>{cell}}" for e in row))
    lines.append("binomials:")
    lines.extend(f"  {b}" for b in binomials)
    return "\n".join(lines) + "\n"


# The generating set is rendered straight from the lead-sorted rows of
# GeneratorSet through a table of the 2^n word strings; the output bytes are
# those of str(Binomial) and of json.dumps(..., indent=2) on binomial_to_dict.


def _word_strings(n: int) -> list[str]:
    return [format(v, f"0{n}b") for v in range(1 << n)]


def _binomial_texts(words: list[str], rows: Rows) -> list[str]:
    q = ["q_" + w for w in words]
    return [f"{q[a]}*{q[b]} - {q[c]}*{q[d]}" for a, b, c, d in rows.tolist()]


def _json_group(n: int, words: list[str], rows: Rows) -> str:
    if not len(rows):
        return "[]"
    item = (
        "    {\n"
        f'      "n": {n},\n'
        '      "plus": [\n        "%s",\n        "%s"\n      ],\n'
        '      "minus": [\n        "%s",\n        "%s"\n      ]\n'
        "    }"
    )
    body = ",\n".join(
        item % (words[a], words[b], words[c], words[d]) for a, b, c, d in rows.tolist()
    )
    return "[\n" + body + "\n  ]"


def _render_ideal(config: RunConfig) -> str:
    gens = build_generators(config.n, cap=config.cap)
    n, words = gens.n, _word_strings(gens.n)
    groups = (("fixed-leaf", gens.fixed_rows), ("complementary", gens.complementary_rows))
    if config.format == "json":
        return (
            f'{{\n  "n": {n},\n  "total": {len(gens)},\n'
            f'  "fixed_leaf": {_json_group(n, words, gens.fixed_rows)},\n'
            f'  "complementary": {_json_group(n, words, gens.complementary_rows)}\n}}\n'
        )
    if config.format == "csv":
        lines = ["group,plus_1,plus_2,minus_1,minus_2"]
        for name, rows in groups:
            lines.extend(
                f"{name},{words[a]},{words[b]},{words[c]},{words[d]}"
                for a, b, c, d in rows.tolist()
            )
        return "\n".join(lines) + "\n"
    fixed, comp = (_binomial_texts(words, rows) for _, rows in groups)
    if config.format == "cas-script":
        return cas_script(fixed + comp, n, "kernel ideal generators")
    lines = [
        f"generating set, n = {n}: {len(gens)} generators "
        f"({len(fixed)} fixed-leaf, {len(comp)} complementary)",
        "fixed-leaf:",
    ]
    lines.extend(f"  {t}" for t in fixed)
    lines.append("complementary:")
    lines.extend(f"  {t}" for t in comp)
    return "\n".join(lines) + "\n"


def _certificate_to_dict(cert: GroebnerCertificate) -> dict:
    payload = {
        "n": cert.n,
        "basis_size": cert.size,
        "strict": cert.strict,
        "is_groebner": cert.is_groebner,
        "pairs_total": cert.pairs_total,
        "reduced": cert.reduced,
        "spoly_zero": cert.spoly_zero,
        "skipped_coprime": cert.skipped_coprime,
        "skipped_shared_trailing": cert.skipped_shared_trailing,
        "max_steps": cert.max_steps,
        "failures": [
            {"i": p.i, "j": p.j, "rule": p.rule, "steps": p.steps}
            for p in cert.failures
        ],
    }
    if cert.pairs is not None:
        payload["pairs"] = [
            {"i": p.i, "j": p.j, "rule": p.rule, "steps": p.steps} for p in cert.pairs
        ]
    return payload


def _run_verify(config: RunConfig) -> tuple[str, int]:
    gens = build_generators(config.n, cap=config.cap)
    cert = verify_groebner(
        gens.sorted_generators(),
        strict=config.strict,
        record_pairs=config.format == "json",
    )
    if config.format == "json":
        text = _json_doc(_certificate_to_dict(cert))
    else:
        mode = "strict" if cert.strict else "with skip rules"
        lines = [
            f"groebner check, n = {config.n}: basis size {cert.size}, {mode}",
            f"pairs total:            {cert.pairs_total}",
            f"reduced to zero:        {cert.reduced}",
            f"s-polynomial zero:      {cert.spoly_zero}",
            f"skipped coprime:        {cert.skipped_coprime}",
            f"skipped shared trail:   {cert.skipped_shared_trailing}",
            f"max reduction steps:    {cert.max_steps}",
            "result: GROEBNER"
            if cert.is_groebner
            else f"result: NOT GROEBNER ({len(cert.failures)} stuck pairs)",
        ]
        text = "\n".join(lines) + "\n"
    return text, 0 if cert.is_groebner else 1


def _run_oracle_compare(config: RunConfig) -> tuple[str, int]:
    n = config.n
    matrix = build_matrix(n, cap=config.cap)
    basis = build_lattice_basis(n, cap=config.cap)
    formula = expected_row_count(n)
    dim = nullspace_dimension(matrix)
    rank = exact_rank(basis.rows)
    binomials = lattice_binomials(basis)
    kernel_ok = sum(1 for b in binomials if in_kernel(b))
    checks = [
        ("kernel dimension (rank oracle vs formula)", dim, formula),
        ("lattice row count vs kernel dimension", basis.shape[0], formula),
        ("lattice rank vs row count", rank, basis.shape[0]),
        ("lattice binomials in kernel", kernel_ok, len(binomials)),
    ]
    enumerated: int | None = None
    if n <= 5:
        reducer = BinomialReducer(build_generators(n, cap=config.cap).sorted_generators())
        kernel = enumerate_quadratic_kernel(n)
        complete = sum(1 for b in kernel if reducer.in_ideal(b))
        enumerated = len(kernel)
        checks.append(("enumerated kernel binomials reducing to zero", complete, enumerated))
    ok = all(got == want for _, got, want in checks)
    if config.format == "json":
        payload = {
            "n": n,
            "ok": ok,
            "checks": [
                {"name": name, "got": got, "expected": want, "ok": got == want}
                for name, got, want in checks
            ],
            "enumerated": enumerated,
        }
        text = _json_doc(payload)
    else:
        lines = [f"oracle comparison, n = {n}"]
        for name, got, want in checks:
            mark = "OK" if got == want else "FAIL"
            lines.append(f"{name}: {got} (expected {want}) -> {mark}")
        if enumerated is None:
            lines.append("degree-2 enumeration: skipped (n > 5)")
        lines.append("overall: " + ("OK" if ok else "FAIL"))
        text = "\n".join(lines) + "\n"
    return text, 0 if ok else 1


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    if config.command not in _FORMATS:
        raise ValueError(f"unknown command {config.command!r}")
    if config.format not in _FORMATS[config.command]:
        raise ValueError(
            f"format {config.format!r} is not available for {config.command}"
        )
    smallest = 2 if config.command == "matrix" else 3
    if not smallest <= config.n <= config.cap:
        raise ValueError(
            f"n must be in {smallest}..{config.cap} for {config.command}, got {config.n}"
        )
    if config.command == "verify-groebner" and config.format == "json":
        m = generator_count(config.n)
        pairs = m * (m - 1) // 2
        if pairs > MAX_RECORDED_PAIRS:
            raise ValueError(
                f"verify-groebner --format json records every S-pair, and n = {config.n} "
                f"has {pairs} (limit {MAX_RECORDED_PAIRS}); plain output has no such limit"
            )
    if config.command in ("ideal", "export"):
        count = generator_count(config.n)
        if count > MAX_GENERATORS:
            raise ValueError(
                f"{config.command} holds the whole generating set, and n = {config.n} "
                f"has {count} generators (limit {MAX_GENERATORS})"
            )
    # opened before any work, so that an unwritable path fails at once
    sink = (
        nullcontext(sys.stdout) if config.out is None else open(config.out, "w", encoding="utf-8")
    )
    with sink as stream:
        status = 0
        if config.command == "matrix":
            text = _render_matrix(config)
        elif config.command == "lattice":
            text = _render_lattice(config)
        elif config.command in ("ideal", "export"):
            text = _render_ideal(config)
        elif config.command == "verify-groebner":
            text, status = _run_verify(config)
        else:
            text, status = _run_oracle_compare(config)
        stream.write(text)
    return status


def _default_cap() -> int:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return MAX_LEAVES
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_CAP} must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clawtoric",
        description="Kernel ideals of the star-tree parametrization in Fourier coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "matrix": "print the incidence matrix",
        "lattice": "print the kernel lattice basis and its binomials",
        "ideal": "print the quadratic generating set",
        "verify-groebner": "check the generating set with the Buchberger criterion",
        "oracle-compare": "compare constructions against brute-force oracles",
        "export": "write the generating set for an external system",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, required=True, help="number of leaves")
        p.add_argument(
            "--format",
            choices=_FORMATS[name],
            default=_FORMATS[name][0],
            help="output format",
        )
        p.add_argument(
            "--cap",
            type=int,
            default=None,
            help=f"upper guard for n (default {MAX_LEAVES}, env {ENV_CAP})",
        )
        p.add_argument("--out", default=None, help="write output to this path")
        if name == "verify-groebner":
            p.add_argument(
                "--strict",
                action="store_true",
                help="reduce every S-pair, coprime ones too",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig(
            command=args.command,
            n=args.n,
            format=args.format,
            strict=getattr(args, "strict", False),
            cap=_default_cap() if args.cap is None else args.cap,
            out=args.out,
        )
        return run(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = "standard output" if args.out is None else args.out
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
