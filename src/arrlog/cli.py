"""Command-line front end.

Subcommand style, one binary: stdout carries data, stderr diagnostics.
Exit codes: 0 = ok, 1 = a verification check failed (counterexample on
stdout), 2 = usage or input error, or output that cannot be written (a
closed pipe, a full disk), 3 = an internal error: a certificate failed (an
exact identity the mathematics guarantees did not hold) or the program
crashed.  Both are bugs, reported as one ``Name: message`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus as corpus_mod
from .arrangement import (Arrangement, LinearForm3, ParseError, ascii_int,
                          chi0, intersection_points, is_balanced, n_H, nr_form,
                          parse_arrangement, to_document)
from .criteria import (InadmissibleLine, NotApplicable, property_P,
                       splitting_range, splitting_type, verify,
                       yoshinaga_defect)
from .derivation import DegreeCapError, classify
from .multiarr import basis, exponents, saito_check, ziegler_restriction


class UsageError(Exception):
    pass


def _ascii_int(text: str) -> int:
    """An integer option or coefficient, in the ASCII digits only
    (arrangement.ascii_int)."""
    value = ascii_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return value


def _read_arrangement(path: str) -> Arrangement:
    if path == "-":
        return parse_arrangement(sys.stdin.buffer.read())
    with open(path, "rb") as fh:
        return parse_arrangement(fh.read())


def _emit(doc, output: str, text_render=None):
    if output == "json":
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text_render(doc) if text_render else json.dumps(doc))
        sys.stdout.write("\n")


def _line_indices(A: Arrangement, args) -> list[int]:
    if args.all:
        return list(range(len(A)))
    if args.line is None:
        raise UsageError("one of --line / --all is required")
    if not 0 <= args.line < len(A):
        raise UsageError(f"line index {args.line} out of range for {len(A)} lines")
    return [args.line]


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    A = _read_arrangement(args.input)
    cls = classify(A)
    chi = chi0(A)
    nr = nr_form(A)
    bal = is_balanced(A)
    pts = intersection_points(A)
    doc = {
        "arrangement": to_document(A),
        "size": len(A),
        "points": [{"point": [str(c) for c in p.point],
                    "lines": list(p.incident_lines)} for p in pts],
        "n_H": [n_H(A, i) for i in range(len(A))],
        "chi0": {"coefficients": list(chi.coefficients), "b2_0": chi.b2_0},
        "nr_form": {"n": nr.n, "r": nr.r, "c": nr.c},
        "balanced": bal.balanced,
        "classification": cls.to_json(),
    }

    def text(d):
        lines = [f"arrangement of {d['size']} lines, {len(d['points'])} points",
                 f"chi0 = t^2 - {d['size'] - 1}t + {d['chi0']['b2_0']}"
                 f"  (n={d['nr_form']['n']}, r={d['nr_form']['r']},"
                 f" c={d['nr_form']['c']})",
                 f"balanced: {d['balanced']}",
                 f"verdict: {d['classification']['verdict']}"
                 f" {d['classification'].get('exponents')}"]
        return "\n".join(lines)

    _emit(doc, args.output, text)
    return 0


def cmd_classify(args) -> int:
    A = _read_arrangement(args.input)
    cls = classify(A)
    _emit(cls.to_json(), args.output,
          lambda d: f"{d['verdict']} exponents={d.get('exponents')}"
                    f" level={d.get('level')} mdr={d['mdr']} nu={d.get('nu')}")
    return 0


def cmd_ziegler(args) -> int:
    A = _read_arrangement(args.input)
    out = []
    for H in _line_indices(A, args):
        M, _ = ziegler_restriction(A, H)
        exp = exponents(M)
        entry = {"H": H, "restriction": M.to_json(),
                 "exponents": list(exp.as_pair())}
        if args.basis:
            t1, t2 = basis(M)
            entry["basis"] = [f"({t1.p}, {t1.q})", f"({t2.p}, {t2.q})"]
            entry["saito"] = saito_check(t1, t2, M)
        out.append(entry)

    def text(d):
        return "\n".join(f"H={e['H']}: exponents {tuple(e['exponents'])}"
                         for e in d)

    _emit(out, args.output, text)
    return 0


def cmd_defects(args) -> int:
    A = _read_arrangement(args.input)
    out = [yoshinaga_defect(A, H).to_json() for H in _line_indices(A, args)]
    _emit(out, args.output,
          lambda d: "\n".join(f"H={e['H']}: defect {e['defect']}" for e in d))
    return 0


def cmd_property_p(args) -> int:
    A = _read_arrangement(args.input)
    out = [property_P(A, H).to_json() for H in _line_indices(A, args)]
    _emit(out, args.output,
          lambda d: "\n".join(f"H={e['H']}: {e['holds'] or 'does not hold'}"
                              + (f" alpha={e['alpha']}" if e.get("alpha") else "")
                              for e in d))
    return 0


def cmd_splitting(args) -> int:
    A = _read_arrangement(args.input)
    out = []
    if args.form:
        try:
            coeffs = [_ascii_int(v) for v in args.form.split(",")]
        except argparse.ArgumentTypeError:
            raise UsageError(f"bad --form {args.form!r}; expected a,b,c integers")
        if len(coeffs) != 3:
            raise UsageError("--form needs exactly three coefficients")
        out.append(splitting_type(A, LinearForm3.make(coeffs)).to_json())
    else:
        for H in _line_indices(A, args):
            out.append(splitting_type(A, H).to_json())
    if args.range:
        out = {"types": out, "range": splitting_range(A).to_json()}
    _emit(out, args.output)
    return 0


def cmd_verify(args) -> int:
    if args.random < 0 or args.external < 0:
        raise UsageError("--random and --external must be nonnegative")
    if args.corpus and args.max_lines < 3:
        raise UsageError("--max-lines must be at least 3")
    if args.corpus:
        arrangements = [f.build() for f in corpus_mod.FIXTURES]
        arrangements += corpus_mod.random_corpus(args.random, args.max_lines,
                                                 args.seed)
    else:
        if not args.input:
            raise UsageError("verify needs an input file or --corpus")
        arrangements = [_read_arrangement(args.input)]
    reports = [verify(A, seed=args.seed, external_count=args.external)
               for A in arrangements]
    ok = all(r.ok for r in reports)
    docs = [r.to_json() for r in reports]

    def text(ds):
        lines = []
        for A, r in zip(arrangements, reports):
            name = A.name or f"{len(A)} lines"
            lines.append(f"{name}: {'ok' if r.ok else 'FAIL'}"
                         f" ({r.classification.verdict})")
            for c in r.checks:
                if c.status == "fail":
                    lines.append(f"  {c.id}: FAIL  {c.detail}")
        return "\n".join(lines)

    _emit(docs, args.output, text)
    failed = sum(1 for r in reports if not r.ok)
    print(f"{len(reports)} arrangements verified, {failed} with failing checks",
          file=sys.stderr)
    return 0 if ok else 1


def cmd_gen(args) -> int:
    family = args.family
    if args.n < (3 if family == "near-pencil" else 1):
        raise UsageError(f"--n {args.n} is too small for the {family} family")
    if family == "pencil":
        A = corpus_mod.pencil(args.n)
    elif family == "near-pencil":
        A = corpus_mod.near_pencil(args.n)
    elif family == "generic":
        A = corpus_mod.generic(args.n, args.seed)
    elif family == "random":
        A = corpus_mod.random_arrangement(args.n, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown family {family!r}")
    _emit(to_document(A), args.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arrlog",
        description="Exact invariants of central line arrangements in P^2")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", help="input document path, or - for stdin")
        sp.add_argument("--output", choices=("json", "text"), default="json")

    sp = sub.add_parser("analyze", help="lattice, chi0 and classification summary")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("classify", help="free / nearly free / plus-one generated")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    for name, fn, extra in (
            ("ziegler", cmd_ziegler, ("basis",)),
            ("defects", cmd_defects, ()),
            ("property-p", cmd_property_p, ())):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--line", type=_ascii_int, help="line index")
        sp.add_argument("--all", action="store_true", help="all lines")
        if "basis" in extra:
            sp.add_argument("--basis", action="store_true",
                            help="include a certified basis")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("splitting", help="splitting types along lines")
    common(sp)
    sp.add_argument("--line", type=_ascii_int)
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--form", help="external line as a,b,c")
    sp.add_argument("--range", action="store_true",
                    help="include the candidate splitting range")
    sp.set_defaults(func=cmd_splitting)

    sp = sub.add_parser("verify", help="run every structural check")
    sp.add_argument("input", nargs="?", help="input document path, or - for stdin")
    sp.add_argument("--output", choices=("json", "text"), default="json")
    sp.add_argument("--corpus", action="store_true",
                    help="verify the fixture corpus (plus --random extras)")
    sp.add_argument("--random", type=_ascii_int, default=0,
                    help="number of random arrangements to add")
    sp.add_argument("--max-lines", type=_ascii_int, default=8)
    sp.add_argument("--seed", type=_ascii_int, default=1)
    sp.add_argument("--external", type=_ascii_int, default=20,
                    help="external admissible lines sampled per arrangement")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("gen", help="generate an arrangement document")
    sp.add_argument("--family", required=True,
                    choices=("generic", "near-pencil", "pencil", "random"))
    sp.add_argument("--n", type=_ascii_int, required=True)
    sp.add_argument("--seed", type=_ascii_int, default=1)
    sp.add_argument("--output", choices=("json", "text"), default="json")
    sp.set_defaults(func=cmd_gen)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UsageError, InadmissibleLine, NotApplicable,
            DegreeCapError, OSError, corpus_mod.BudgetExhausted) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # failed certificates and crashes alike
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
