"""Command-line front end.

Subcommands: patterns, dim, basis, pn1, threej, su3cg, isoscalar, selftest.
Output is deterministic (canonical orderings everywhere) and exact: values
are rendered as p/q*sqrt(a/b), JSON carries the same data structurally.

Exit codes: 0 on success, 1 on domain rejection (invalid label or pattern,
with the violated inequality named), 2 on usage errors, 3 when an internal
consistency check fails (two routes disagree: a library fault).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .basisgen import basis_from_branching, p_n_1
from .coupling import (
    IsoscalarUndefined,
    coupling_table,
    racah_threej_oracle,
    su2_threej,
    su3_isoscalar,
)
from .gelfand import (
    ConsistencyError,
    DomainError,
    GelfandPattern,
    IrrepLabel,
    StructureError,
    enumerate_patterns,
    weyl_dimension,
)
from .selftest import SUITES, run_all

_GROUPS = {"u1": 1, "u2": 2, "u3": 3, "u4": 4, "u5": 5}


def _parse_label(text: str, group: str | None = None) -> IrrepLabel:
    label = IrrepLabel([int(v) for v in text.split(",")])
    if group is not None and label.n != _GROUPS[group]:
        raise DomainError(f"label {text} has {label.n} entries, expected "
                          f"{_GROUPS[group]} for {group}")
    return label


def _parse_pattern(text: str) -> GelfandPattern:
    rows = [[int(v) for v in row.split(",")] for row in text.split(";")]
    p = GelfandPattern(rows)
    from .gelfand import validate_pattern
    if not validate_pattern(p):
        raise DomainError(f"pattern {text} violates betweenness")
    return p


def _parse_halfints(text: str) -> list[Fraction]:
    return [Fraction(v) for v in text.split(",")]


def _load_config(path: str | None) -> dict[str, str]:
    """Optional key=value configuration (keys: group, format)."""
    path = path or os.environ.get("GTBOSON_CONFIG")
    conf: dict[str, str] = {}
    if path and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or "=" not in line:
                    continue
                key, _, value = line.partition("=")
                conf[key.strip()] = value.strip()
    return conf


def _emit(text: str, path: str | None) -> None:
    if path:
        outdir = os.environ.get("GTBOSON_OUTPUT_DIR", "")
        if outdir and not os.path.isabs(path):
            path = os.path.join(outdir, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_patterns(args) -> str:
    label = _parse_label(args.label, args.group)
    pats = enumerate_patterns(label)
    if args.format == "json":
        return _json_text({"label": list(label.h), "count": len(pats),
                           "patterns": [p.to_json() for p in pats]})
    lines = [";".join(",".join(str(v) for v in row) for row in p.rows)
             for p in pats]
    if args.format == "csv":
        return "pattern\n" + "\n".join(lines) + "\n"
    return "\n".join(lines) + "\n"


def _cmd_dim(args) -> str:
    label = _parse_label(args.label, args.group)
    d = weyl_dimension(label)
    if args.format == "json":
        return _json_text({"label": list(label.h), "dimension": d})
    return f"{d}\n"


def _cmd_basis(args) -> str:
    p = _parse_pattern(args.pattern)
    if args.group and p.n != _GROUPS[args.group]:
        raise DomainError(f"pattern has {p.n} rows, expected {_GROUPS[args.group]}")
    if p.n > 4:
        raise DomainError("basis construction is implemented for n <= 4")
    b = basis_from_branching(p)
    if args.format == "json":
        return _json_text(b.to_json())
    return (f"{b.poly.text()}\n"
            f"norm_sq={b.norm_sq.numerator}/{b.norm_sq.denominator}\n")


def _cmd_pn1(args) -> str:
    p = _parse_pattern(args.pattern)
    value = p_n_1(p)
    if args.format == "json":
        return _json_text({"pattern": p.to_json(), "value": value})
    return f"{value}\n"


def _cmd_threej(args) -> str:
    js = _parse_halfints(args.j)
    ms = _parse_halfints(args.m)
    if len(js) != 3 or len(ms) != 3:
        raise DomainError("threej needs three j values and three m values")
    pats = []
    for j, m in zip(js, ms):
        tj, tm = j * 2, m * 2
        if tj.denominator != 1 or tm.denominator != 1 or (tj + tm) % 2:
            raise DomainError(f"(j, m) = ({j}, {m}) is not a spin pair")
        if abs(tm) > tj:
            raise DomainError(f"|m| = {abs(m)} exceeds j = {j}")
        pats.append(GelfandPattern([[int(tj), 0], [int(tj + tm) // 2]]))
    value = su2_threej(*pats)
    oracle = racah_threej_oracle(*(x for jm in zip(js, ms) for x in jm))
    if value != oracle:
        raise ConsistencyError(f"3-j value {value.text()} differs from the "
                               f"Racah oracle {oracle.text()}")
    if args.format == "json":
        return _json_text({"j": [str(j) for j in js],
                           "m": [str(m) for m in ms],
                           "value": value.to_json()})
    return f"{value.text()}\n"


def _parse_labels_triple(text: str) -> tuple[IrrepLabel, ...]:
    labels = tuple(IrrepLabel([int(v) for v in part.split(",")])
                   for part in text.split(";"))
    if len(labels) != 3 or any(l.n != 3 for l in labels):
        raise DomainError("expected three U(3) labels 'a,b,c;d,e,f;g,h,i'")
    return labels


def _cmd_su3cg(args) -> str:
    labels = _parse_labels_triple(args.labels)
    table = coupling_table(labels)
    if args.format == "json":
        return _json_text(table.to_json())
    if args.format == "csv":
        return table.to_csv()
    lines = [f"rho_count={table.rho_count}"]
    for key in table.nonzero_keys():
        pats = [";".join(",".join(str(v) for v in row) for row in rows)
                for rows in key[:3]]
        lines.append(f"{pats[0]} | {pats[1]} | {pats[2]} | rho={key[3]} | "
                     f"{table.entries[key].text()}")
    return "\n".join(lines) + "\n"


def _cmd_isoscalar(args) -> str:
    labels = _parse_labels_triple(args.labels)
    rows = [tuple(int(v) for v in part.split(",")) for part in args.rows.split(";")]
    if len(rows) != 3 or any(len(r) != 2 for r in rows):
        raise DomainError("expected three middle rows 'a,b;c,d;e,f'")
    value = su3_isoscalar(labels, rows, args.rho)
    if args.format == "json":
        return _json_text({"labels": [list(l.h) for l in labels],
                           "rows": [list(r) for r in rows],
                           "rho": args.rho,
                           "value": value.to_json()})
    return f"{value.text()}\n"


def _cmd_selftest(args) -> str:
    names = args.suite or None
    if names:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise DomainError(f"unknown suite(s): {', '.join(unknown)}; "
                              f"available: {', '.join(SUITES)}")
    results = run_all(names)
    lines = [r.line() for r in results]
    ok = all(r.ok for r in results)
    lines.append("ALL SUITES PASS" if ok else "SUITE FAILURES PRESENT")
    if not ok:
        raise _SelftestFailure("\n".join(lines) + "\n")
    return "\n".join(lines) + "\n"


class _SelftestFailure(Exception):
    pass


def build_parser(defaults: dict[str, str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtboson",
        description="Exact Gel'fand pattern, boson basis and coupling tables")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default=defaults.get("format", "text"))
        p.add_argument("--output", "-o", help="output file (relative paths "
                       "resolve against GTBOSON_OUTPUT_DIR)")
        if group:
            p.add_argument("--group", choices=sorted(_GROUPS),
                           default=defaults.get("group"))

    p = sub.add_parser("patterns", help="enumerate Gel'fand patterns")
    p.add_argument("--label", required=True)
    common(p)
    p.set_defaults(fn=_cmd_patterns)

    p = sub.add_parser("dim", help="Weyl dimension of a label")
    p.add_argument("--label", required=True)
    common(p)
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("basis", help="basis polynomial of a pattern")
    p.add_argument("--pattern", required=True,
                   help="rows top to bottom, e.g. '2,1,0;2,1;2'")
    common(p)
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("pn1", help="combinatorial evaluation factor")
    p.add_argument("--pattern", required=True)
    common(p, group=False)
    p.set_defaults(fn=_cmd_pn1)

    p = sub.add_parser("threej", help="SU(2) 3-j symbol")
    p.add_argument("--j", required=True, help="three spins, e.g. 0.5,0.5,0")
    p.add_argument("--m", required=True, help="three projections")
    common(p, group=False)
    p.set_defaults(fn=_cmd_threej)

    p = sub.add_parser("su3cg", help="SU(3) Wigner coefficient table")
    p.add_argument("--labels", required=True,
                   help="three labels, e.g. '1,0,0;1,1,0;1,1,1'")
    common(p, group=False)
    p.set_defaults(fn=_cmd_su3cg)

    p = sub.add_parser("isoscalar", help="SU(3) isoscalar factor")
    p.add_argument("--labels", required=True)
    p.add_argument("--rows", required=True,
                   help="three middle rows, e.g. '1,0;1,0;1,1'")
    p.add_argument("--rho", type=int, default=1)
    common(p, group=False)
    p.set_defaults(fn=_cmd_isoscalar)

    p = sub.add_parser("selftest", help="run the verification suites")
    p.add_argument("--suite", action="append",
                   help=f"restrict to suites: {', '.join(SUITES)}")
    common(p, group=False)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    defaults = _load_config(known.config)
    parser = build_parser(defaults)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.fn(args)
    except (DomainError, StructureError, IsoscalarUndefined, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _SelftestFailure as exc:
        sys.stdout.write(str(exc))
        return 1
    except ConsistencyError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    _emit(text, args.output)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
