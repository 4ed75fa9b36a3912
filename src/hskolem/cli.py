"""Command-line surface: construct, verify, search, survey, convert.
Exit codes: 0 success / verified, 1 verification failed, 2 no labeling
exists for the requested order, 3 search bound exceeded, 64 usage error (a
bad flag value, or an instance too deep to search), 65 unreadable, non-UTF-8
or malformed input, 70 internal contradiction (also a construct failing its
own certificate).

The paragraph above is the --help text.  main alone maps errors to exit
codes.  core parses all input text.  survey searches its rows serially (no
--jobs), checks the bound first and prints rows as it goes, so a
contradiction met mid-table exits 70 after the earlier rows.  The parser
and main need only core; each command imports the modules it runs, so a
call loads (and, with no bytecode, compiles) no other.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import core

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_GRACEFUL = 2
EXIT_BOUND = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_CONTRADICTION = 70

_KINDS = {kind.value.replace("_", "-"): kind for kind in core.SequenceKind}


def _add_search_flags(p):
    p.add_argument("--mode", choices=core.MODES, default="exists")
    p.add_argument("--limit", type=int, default=None,
                   help="max solutions for --mode enumerate")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--force", action="store_true",
                   help="override the exhaustive-search bound")


def build_parser() -> argparse.ArgumentParser:
    description = (__doc__ or "").partition("\n\n")[0]  # no docstring under -OO
    parser = argparse.ArgumentParser(prog="hskolem", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct")
    csub = p_construct.add_subparsers(dest="target", required=True)
    p_cnk2 = csub.add_parser("nk2")
    p_cnk2.add_argument("--n", type=int, required=True)
    p_cnk2.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify")
    vsub = p_verify.add_subparsers(dest="target", required=True)
    p_vlab = vsub.add_parser("labeling")
    p_vlab.add_argument("--file", required=True)
    p_vseq = vsub.add_parser("sequence")
    p_vseq.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p_vseq.add_argument("--d", type=int, default=1)
    p_vseq.add_argument("--seq", required=True)

    p_search = sub.add_parser("search")
    ssub = p_search.add_subparsers(dest="target", required=True)
    p_snk2 = ssub.add_parser("nk2")
    p_snk2.add_argument("--n", type=int, required=True)
    p_snk2.add_argument("--k", type=int, required=True)
    p_snk2.add_argument("--d", type=int, required=True)
    _add_search_flags(p_snk2)
    p_sgraph = ssub.add_parser("graph")
    p_sgraph.add_argument("--edges", required=True, help="edge-list file")
    p_sgraph.add_argument("--k", type=int, required=True)
    p_sgraph.add_argument("--d", type=int, required=True)
    _add_search_flags(p_sgraph)
    p_sseq = ssub.add_parser("sequence")
    p_sseq.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p_sseq.add_argument("--m", type=int, required=True)
    p_sseq.add_argument("--d", type=int, default=1)
    _add_search_flags(p_sseq)

    p_survey = sub.add_parser("survey")
    usub = p_survey.add_subparsers(dest="target", required=True)
    p_unk2 = usub.add_parser("nk2")
    p_unk2.add_argument("--n-max", type=int, required=True)
    p_unk2.add_argument("--k", type=int, required=True)
    p_unk2.add_argument("--d", type=int, required=True)
    p_unk2.add_argument("--search-up-to", type=int, default=0)
    p_unk2.add_argument("--force", action="store_true")

    p_convert = sub.add_parser("convert")
    p_convert.add_argument("--from", dest="from_form",
                           choices=("pairs", "sequence"), required=True)
    p_convert.add_argument("--to", dest="to_form",
                           choices=("pairs", "sequence"), required=True)
    p_convert.add_argument("--kind", choices=sorted(_KINDS), default="hooked")
    p_convert.add_argument("--d", type=int, default=1)
    p_convert.add_argument("--in", dest="source", required=True,
                           help="path to a file, or the value inline")

    return parser


class _BadData(Exception):
    """Unreadable or malformed input (exit 65)."""


def _read(source: str, inline: bool = False) -> str:
    """The UTF-8 text of the file at source; with inline, source itself
    unless a file exists at that path."""
    if inline and not os.path.isfile(source):  # also for a name too long to be a path
        return source
    try:
        with open(source, encoding="utf-8") as file:
            return file.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise _BadData(exc) from exc


def _parse(parse, text: str, *args, **kwargs):
    """parse(text, ...), with a DomainError read as bad data (exit 65)."""
    try:
        return parse(text, *args, **kwargs)
    except core.DomainError as exc:
        raise _BadData(exc) from exc


def _kind(args) -> core.SequenceKind:
    """--kind, with a hooked kind's --d checked before any input is read."""
    kind = _KINDS[args.kind]
    core.sequence_shape(kind, 1, args.d)  # a DomainError (exit 64) for a hooked d < 1
    return kind


def _cmd_construct(args) -> int:
    from . import construct
    ps = construct.construct_nk2_21(args.n)
    if args.format == "json":
        print(core.pair_system_to_json(ps, 2, 1))
    else:
        print(core.format_pairs(ps))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify
    if args.target == "labeling":
        ps, k, d = _parse(core.pair_system_from_json, _read(args.file))
        report = verify.verify_pair_system(ps, k, d)
    else:
        s = _parse(core.parse_sequence, args.seq, kind=_kind(args), d=args.d)
        report = verify.verify_sequence(s)
    print(report.to_text())
    return EXIT_OK if report.valid else EXIT_INVALID


def _print_outcome(outcome, mode, render) -> None:
    if mode == "exists":
        print("true" if outcome.exists else "false")
    elif mode == "count":
        print(outcome.count)
    elif mode == "first":
        print(render(outcome.solutions[0]) if outcome.solutions else "none")
    else:
        for sol in outcome.solutions:
            print(render(sol))


def _cmd_search(args) -> int:
    from . import search
    kwargs = dict(mode=args.mode, limit=args.limit, jobs=args.jobs,
                  force=args.force)
    if args.target == "nk2":
        outcome = search.search_nk2(args.n, args.k, args.d, **kwargs)
        render = core.format_pairs
    elif args.target == "graph":
        g = _parse(core.load_edge_list, _read(args.edges))
        outcome = search.search_graph(g, args.k, args.d, **kwargs)
        render = lambda f: " ".join(str(x) for x in f.labels)
    else:
        outcome = search.search_sequence(_KINDS[args.kind], args.m, args.d, **kwargs)
        render = core.format_sequence
    _print_outcome(outcome, args.mode, render)
    return EXIT_OK


def _cmd_survey(args) -> int:
    from . import search
    if not 1 <= args.n_max <= core.MAX_ORDER:
        raise core.DomainError(f"--n-max must be in 1..{core.MAX_ORDER}, got {args.n_max}")
    for n in range(1, args.n_max + 1):  # one row at a time: memory stays flat
        [row] = search.survey_nk2((n,), args.k, args.d,
                                  search_up_to=min(args.search_up_to, args.n_max),
                                  force=args.force)
        if n == 1:  # after the first row, so a bad argument prints nothing
            print(f"{'n':>4}  {'parity':<8}  search")
        feasible = "yes" if row.parity_feasible else "no"
        found = "-" if row.exists is None else ("true" if row.exists else "false")
        print(f"{row.n:>4}  {feasible:<8}  {found}")
    return EXIT_OK


def _convert(text: str, args, kind: core.SequenceKind) -> str:
    from . import verify
    if args.from_form == "sequence":
        s = core.parse_sequence(text, kind=kind, d=args.d)
    else:
        ps = (core.pair_system_from_json(text)[0] if text.lstrip().startswith("{")
              else core.parse_pairs(text))
        if args.to_form == "pairs":
            return core.format_pairs(ps)
        s = core.pairs_to_sequence(ps, kind, d=args.d)
    report = verify.verify_sequence(s)  # every sequence read or built, before any output
    if not report.valid:
        cid, detail = report.violations[0]
        raise core.DomainError(f"not a valid sequence: {cid}: {core._quote(detail)}")
    if args.to_form == "pairs":
        return core.format_pairs(core.sequence_to_pairs(s))
    return core.format_sequence(s)


def _cmd_convert(args) -> int:
    kind = _kind(args)
    print(_parse(_convert, _read(args.source, inline=True), args, kind))
    return EXIT_OK


_DISPATCH = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "survey": _cmd_survey,
    "convert": _cmd_convert,
}


def main(argv=None) -> int:
    """Run one command; the only place that maps errors to exit codes."""
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except SystemExit as exc:  # from argparse: 0 after --help, 2 on a usage error
        return EXIT_USAGE if exc.code == 2 else exc.code
    except core.NotGraceful as exc:
        print(exc, file=sys.stderr)
        return EXIT_NOT_GRACEFUL
    except core.BoundExceeded as exc:
        print(f"error: {exc} (use --force to override)", file=sys.stderr)
        return EXIT_BOUND
    except _BadData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except core.DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except core.ContradictionDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
