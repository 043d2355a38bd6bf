"""Command-line front end.

Subcommands: patterns, dim, basis, pn1, threej, su3cg, isoscalar, selftest.
Output is deterministic (canonical orderings everywhere) and exact: values
are rendered as p/q*sqrt(a/b), JSON carries the same data structurally.

Exit codes: 0 on success, 1 on domain rejection (invalid label or pattern,
with the violated inequality named), 2 on usage errors (malformed numbers,
config values outside their choices, an unwritable output file), 3 when an
internal consistency check fails (two routes disagree: a library fault).

Start-up loads the library modules and nothing a command does not run:
`threej` imports the Racah sum (`gtboson.racah`, not the other oracles),
`selftest` its suites and `--format json` the json module, each when that
command runs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, islice

from . import __version__
from .basisgen import basis_from_branching, p_n_1
from .coupling import coupling_table, su2_threej, su3_isoscalar
from .gelfand import (
    ConsistencyError,
    DomainError,
    GelfandPattern,
    IrrepLabel,
    _completed_rows,
    _rows_text,
    enumerate_patterns,
    weyl_dimension,
)

_GROUPS = {"u1": 1, "u2": 2, "u3": 3, "u4": 4, "u5": 5}
_FORMATS = ("json", "csv", "text")
_CONFIG_CHOICES = {"group": sorted(_GROUPS), "format": _FORMATS}
# The names of `selftest.SUITES`, in its order, for `selftest --suite`.
_SUITES = ("dimensions", "generating", "orthonormality", "closedforms",
           "pn1", "u4indices", "su2", "su3", "kernel")
# `patterns` refuses a label with more patterns than this before enumerating.
_MAX_PATTERNS = 100_000
# `threej` refuses a larger total spin j1 + j2 + j3 before any arithmetic.
_MAX_TOTAL_SPIN = 200
# `su3cg` and `isoscalar` refuse labels whose table has more pattern triples
# d1*d2*d3 than this (64-dim labels are allowed) before building it.
_MAX_TABLE_SIZE = 64 ** 3


class _UsageError(Exception):
    """Malformed input text, config value or output path (exit code 2)."""


# The number tokens: ASCII digits with an optional sign, and for spins also
# halves written n/2 or n.5.  `int` and `Fraction` alone would also read
# underscores, non-ASCII digits, exponents and surrounding spaces.
_TOKENS = {int: re.compile(r"[+-]?[0-9]+"),
           Fraction: re.compile(r"[+-]?[0-9]+(?:/2|\.5)?")}


def _numbers(text: str, kind=int) -> list:
    """Comma-separated numbers of `kind` (int, or Fraction for spins); any
    other token makes the text a usage error."""
    tokens = text.split(",")
    if not all(map(_TOKENS[kind].fullmatch, tokens)):
        raise _UsageError(f"malformed number list {text!r}")
    return list(map(kind, tokens))


def _integer(text: str) -> int:
    """One integer token by the rule of `_numbers` (the type of
    `isoscalar --rho`); argparse passes a usage error through."""
    if not _TOKENS[int].fullmatch(text):
        raise _UsageError(f"malformed number list {text!r}")
    return int(text)


def _parse_label(text: str, group: str | None = None) -> IrrepLabel:
    label = IrrepLabel(_numbers(text))
    if group is not None and label.n != _GROUPS[group]:
        raise DomainError(f"label {text} has {label.n} entries, expected "
                          f"{_GROUPS[group]} for {group}")
    return label


def _parse_pattern(text: str) -> GelfandPattern:
    return GelfandPattern([_numbers(row) for row in text.split(";")])


def _load_config(path: str | None) -> dict[str, str]:
    """Optional key=value configuration (keys: group, format; '#' comments)."""
    path = path or os.environ.get("GTBOSON_CONFIG")
    conf: dict[str, str] = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    key, eq, value = line.partition("=")
                    if not eq or key.strip() not in _CONFIG_CHOICES:
                        raise _UsageError(f"config {line} is not one of "
                                          "group=..., format=...")
                    conf[key.strip()] = value.strip()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise _UsageError(f"cannot read config {path}: {reason}") from None
    for key, choices in _CONFIG_CHOICES.items():
        if key in conf and conf[key] not in choices:
            raise _UsageError(f"config {key}={conf[key]} is not one of "
                              f"{', '.join(choices)}")
    return conf


def _emit(out: str | Iterable[str], path: str | None) -> None:
    """Write a command's output, given whole or as an iterable of chunks."""
    chunks = (out,) if isinstance(out, str) else out
    if path:
        outdir = os.environ.get("GTBOSON_OUTPUT_DIR", "")
        if outdir and not os.path.isabs(path):
            path = os.path.join(outdir, path)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                _write(fh, chunks)
        except OSError as exc:
            raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    else:
        _write(sys.stdout, chunks)


def _write(fh, chunks: Iterable[str]) -> None:
    """Write chunks joined in batches, so that a streamed output is never
    held whole and the many small chunks cost few writes."""
    it = iter(chunks)
    while batch := list(islice(it, 4096)):
        fh.write("".join(batch))


def _json_text(obj) -> str:
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_patterns(args) -> Iterable[str]:
    label = _parse_label(args.label, args.group)
    count = weyl_dimension(label)
    if count > _MAX_PATTERNS:
        raise DomainError(f"label {args.label} has {count} patterns, more "
                          f"than the limit of {_MAX_PATTERNS}")
    if args.format == "json":
        import json

        # each pattern becomes its JSON dict only as the encoder reaches it,
        # with the same text as `_json_text`
        encoder = json.JSONEncoder(indent=2, sort_keys=True,
                                   default=GelfandPattern.to_json)
        pats = enumerate_patterns(label)
        doc = {"label": list(label.h), "count": len(pats), "patterns": pats}
        return chain(encoder.iterencode(doc), ("\n",))
    # generated rows are valid patterns, so text and csv build no objects
    lines = (_rows_text(rows) + "\n" for rows in _completed_rows((label.h,)))
    if args.format == "csv":
        return chain(("pattern\n",), lines)
    return lines


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
    b = basis_from_branching(p)
    if args.format == "json":
        return _json_text(b.to_json())
    return f"{b.poly.text()}\nnorm_sq={b.norm_sq}/1\n"


def _cmd_pn1(args) -> str:
    p = _parse_pattern(args.pattern)
    value = p_n_1(p)
    if args.format == "json":
        return _json_text({"pattern": p.to_json(), "value": value})
    return f"{value}\n"


def _cmd_threej(args) -> str:
    js = _numbers(args.j, Fraction)
    ms = _numbers(args.m, Fraction)
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
    if sum(js) > _MAX_TOTAL_SPIN:
        raise DomainError(f"total spin J = {sum(js)} is more than the limit "
                          f"of {_MAX_TOTAL_SPIN}")
    value = su2_threej(*pats)
    from .racah import racah_threej_oracle

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
    labels = tuple(IrrepLabel(_numbers(part)) for part in text.split(";"))
    if len(labels) != 3 or any(l.n != 3 for l in labels):
        raise DomainError("expected three U(3) labels 'a,b,c;d,e,f;g,h,i'")
    dims = [weyl_dimension(l) for l in labels]
    size = dims[0] * dims[1] * dims[2]
    if size > _MAX_TABLE_SIZE:
        raise DomainError(f"labels {text} span {'*'.join(map(str, dims))} = "
                          f"{size} pattern triples, more than the limit of "
                          f"{_MAX_TABLE_SIZE}")
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
        pats = [_rows_text(rows) for rows in key[:3]]
        lines.append(f"{pats[0]} | {pats[1]} | {pats[2]} | rho={key[3]} | "
                     f"{table.entries[key].text()}")
    return "\n".join(lines) + "\n"


def _cmd_isoscalar(args) -> str:
    labels = _parse_labels_triple(args.labels)
    rows = [_numbers(part) for part in args.rows.split(";")]
    value = su3_isoscalar(labels, rows, args.rho)
    if args.format == "json":
        return _json_text({"labels": [list(l.h) for l in labels],
                           "rows": rows,
                           "rho": args.rho,
                           "value": value.to_json()})
    return f"{value.text()}\n"


def _cmd_selftest(args) -> str:
    from .selftest import run_all

    results = run_all(args.suite)
    lines = [r.line() for r in results]
    ok = all(r.ok for r in results)
    lines.append("ALL SUITES PASS" if ok else "SUITE FAILURES PRESENT")
    if not ok:
        raise _SelftestFailure("\n".join(lines) + "\n")
    return "\n".join(lines) + "\n"


class _SelftestFailure(Exception):
    pass


# Each command: its help, its own arguments (flag to add_argument options),
# whether it takes --group, and its handler.  Every command also takes
# --format and --output.
_COMMANDS = {
    "patterns": ("enumerate Gel'fand patterns",
                 {"--label": dict(required=True)}, True, _cmd_patterns),
    "dim": ("Weyl dimension of a label",
            {"--label": dict(required=True)}, True, _cmd_dim),
    "basis": ("basis polynomial of a pattern",
              {"--pattern": dict(required=True, help="rows top to bottom, "
                                 "e.g. '2,1,0;2,1;2'")},
              True, _cmd_basis),
    "pn1": ("combinatorial evaluation factor",
            {"--pattern": dict(required=True)}, False, _cmd_pn1),
    "threej": ("SU(2) 3-j symbol",
               {"--j": dict(required=True, help="three spins, e.g. 0.5,0.5,0"),
                "--m": dict(required=True, help="three projections")},
               False, _cmd_threej),
    "su3cg": ("SU(3) Wigner coefficient table",
              {"--labels": dict(required=True, help="three labels, e.g. "
                                "'1,0,0;1,1,0;1,1,1'")},
              False, _cmd_su3cg),
    "isoscalar": ("SU(3) isoscalar factor",
                  {"--labels": dict(required=True),
                   "--rows": dict(required=True, help="three middle rows, "
                                  "e.g. '1,0;1,0;1,1'"),
                   "--rho": dict(type=_integer, default=1)},
                  False, _cmd_isoscalar),
    "selftest": ("run the verification suites",
                 {"--suite": dict(action="append", choices=_SUITES,
                                  help="restrict to this suite (repeatable)")},
                 False, _cmd_selftest),
}


class _CommandParser(argparse.ArgumentParser):
    """The parser of one command, which gets its arguments when it first
    parses.  argparse hands the rest of argv to the parser of the command
    that argv names and to no other, so a process adds one command's
    arguments; the program's help lists every command from its help text
    alone."""

    pending = None   # the command whose arguments are not added yet

    def parse_known_args(self, args=None, namespace=None):
        if self.pending is not None:
            _, options, group, fn = _COMMANDS[self.pending]
            self.pending = None
            for flag, kwargs in options.items():
                self.add_argument(flag, **kwargs)
            self.add_argument("--format", choices=_FORMATS)
            self.add_argument("--output", "-o", help="output file (relative "
                              "paths resolve against GTBOSON_OUTPUT_DIR)")
            if group:
                self.add_argument("--group", choices=sorted(_GROUPS))
            self.set_defaults(fn=fn)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command; a command's parser gets its arguments
    when it parses (`_CommandParser`).  --format and --group default to
    None, so that `run` can tell a flag from the config that fills it in."""
    parser = argparse.ArgumentParser(
        prog="gtboson",
        description="Exact Gel'fand pattern, boson basis and coupling tables")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    for name, (text, *_) in _COMMANDS.items():
        sub.add_parser(name, help=text).pending = name
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a flag beats the config (--config or GTBOSON_CONFIG), and the
        # config beats the default; a command without --group ignores it
        for key, value in _load_config(args.config).items():
            if vars(args).get(key, "") is None:
                setattr(args, key, value)
        args.format = args.format or "text"
        _emit(args.fn(args), args.output)
    except SystemExit as exc:
        return int(exc.code or 0)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:  # every input error of the library is one
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _SelftestFailure as exc:
        sys.stdout.write(str(exc))
        return 1
    except ConsistencyError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
