"""Command-line front end.

Each subcommand accepts only the options it reads.  Every subcommand
that builds a monoid context takes --preset, --presentation-file and
--format; `preset` takes --preset and --format.  --strategy belongs to
`reduce` and `rreduce`, --seed and --jobs to `conjecture`.

Exit codes: 0 success, 1 counterexample found, 2 inconclusive, 3 usage or
input error.  All output is deterministic for a fixed argv and seed;
reports are JSON with --format json, graphs are DOT.  The MULTIRED_CAPS
environment variable overrides caps, e.g.
MULTIRED_CAPS="reversing_cap=20000,graph_node_cap=100000".  `irr` and
`graph` print what they found of an incomplete reduct graph and exit 2.
A usage error names the offending argument on stderr.  A query is read
by a parser of its subcommand's options alone; the parser of every
subcommand reads the rest: top-level help, an unknown command, and
arguments the subcommand does not take.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .monoid import CapExceeded, Caps, MonoidContext, MultiredError, Side
from .multifraction import SignedWord, format_multifraction, parse_multifraction
from .presentation import (
    PresentationError,
    format_presentation,
    parse_presentation,
    preset,
    preset_names,
)
from . import reduction as red
from . import harness
from .vankampen import VanKampenFailure, van_kampen

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _caps_from_env() -> Caps:
    text = os.environ.get("MULTIRED_CAPS", "")
    fields = [f.name for f in dataclasses.fields(Caps)]
    kwargs = {}
    for piece in text.split(","):
        if not piece.strip():
            continue
        key, _, value = (part.strip() for part in piece.partition("="))
        if key not in fields or not value.isdecimal():
            raise MultiredError(
                f"MULTIRED_CAPS: {piece.strip()!r} is not <cap>=<integer>; "
                f"the caps are {', '.join(fields)}"
            )
        kwargs[key] = int(value)
    return Caps(**kwargs)


def _context(args) -> MonoidContext:
    """A context for the query; a presentation file is judged as it is
    loaded, so a query that names no atom still refuses a bad one."""
    if not args.presentation_file:
        return MonoidContext(preset(args.preset), _caps_from_env())
    with open(args.presentation_file) as fh:
        pres = parse_presentation(fh.read(), name=args.presentation_file)
    ctx = MonoidContext(pres, _caps_from_env())
    ctx.check_atom_tables()
    return ctx


def parse_signed_word(ctx: MonoidContext, text: str) -> SignedWord:
    """Inverse letters are uppercase single-letter atom names or name^-1.
    A '.' separates atom names, so the piece on each side of one names
    an atom."""
    by_name = ctx.pres.index_of
    out = []
    for token in text.split():
        for piece in token.split("."):
            if not piece:
                raise MultiredError(f"empty atom name in {token!r}")
            if piece.endswith("^-1"):
                if piece[:-3] not in by_name:
                    raise MultiredError(f"unknown letter {piece[:-3]!r}")
                out.append((by_name[piece[:-3]], -1))
            elif piece in by_name:
                out.append((by_name[piece], 1))
            else:
                for ch in piece:
                    if ch in by_name:
                        out.append((by_name[ch], 1))
                    elif ch.lower() in by_name:
                        out.append((by_name[ch.lower()], -1))
                    else:
                        raise MultiredError(f"unknown letter {ch!r}")
    return tuple(out)


def _emit(args, payload: dict, text_lines=None):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines if text_lines is not None else [json.dumps(payload, sort_keys=True)]:
            print(line)


def _add_context(p):
    """The options every subcommand that builds a context reads."""
    p.add_argument("--preset", default="A2tilde")
    p.add_argument("--presentation-file")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _preset_options(p):
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.add_argument("--preset", default="A2tilde")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _multifraction_options(p):
    p.add_argument("multifraction")
    _add_context(p)


def _reduce_options(p):
    p.add_argument("multifraction")
    p.add_argument("--strategy", choices=red.STRATEGIES, default="low_lex")
    _add_context(p)


def _graph_options(p):
    p.add_argument("multifraction")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--dot", action="store_true")
    _add_context(p)


def _wordproblem_options(p):
    p.add_argument("word")
    _add_context(p)


def _conjecture_options(p):
    p.add_argument("which", choices=harness.CONJECTURES)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--length", type=int, default=20)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--log")
    p.add_argument("--dump-dir", default="counterexamples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    _add_context(p)


def _basics_options(p):
    p.add_argument("--side", choices=("left", "right"), default="right")
    _add_context(p)


def _threeore_options(p):
    p.add_argument("--maxlen", type=int, default=1)
    p.add_argument("--side", choices=("left", "right"), default="right")
    _add_context(p)


def _cycleprobe_options(p):
    p.add_argument("--iterations", type=int, default=3)
    _add_context(p)


# subcommand -> (help, function adding its options), in the order help lists them
SUBCOMMANDS = {
    "preset": ("list or show presets", _preset_options),
    "reduce": ("exhaust atomic left reductions", _reduce_options),
    "rreduce": ("exhaust atomic right reductions", _reduce_options),
    "derdiv": ("maximal divisions, top level down", _multifraction_options),
    "redtame": ("greatest tame reductions along the universal sequence", _multifraction_options),
    "irr": ("irreducible left reducts", _multifraction_options),
    "graph": ("atomic reduct graph", _graph_options),
    "wordproblem": ("decide whether a signed word is the group unit", _wordproblem_options),
    "conjecture": ("seeded conjecture campaign", _conjecture_options),
    "vankampen": ("universal-shape diagram for a unital multifraction", _multifraction_options),
    "basics": ("basic elements and complement table size", _basics_options),
    "threeore": ("bounded scan for 3-Ore violations", _threeore_options),
    "cycleprobe": ("replay the alternating non-terminating cycle", _cycleprobe_options),
}


def build_parser() -> _Parser:
    """The parser of every subcommand."""
    parser = _Parser(prog="multired", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, add_options) in SUBCOMMANDS.items():
        add_options(sub.add_parser(name, help=help_))
    return parser


def parse_args(argv):
    """The namespace `build_parser().parse_args(argv)` gives, read by a
    parser of the named subcommand's options alone when argv starts with
    one.  That parser is the subparser to which the full one hands the
    rest of argv, so its help and its usage errors read alike.  Arguments
    it leaves unread are refused by the full parser, which names them."""
    if argv and argv[0] in SUBCOMMANDS:
        parser = _Parser(prog=f"multired {argv[0]}")
        SUBCOMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def _graph_verdict(g: red.ReductGraph) -> int:
    """A reduct graph with undecided moves is no result: exit inconclusive."""
    if not g.complete:
        print(f"inconclusive: reduct graph incomplete, {len(g.inconclusive)} moves "
              f"undecided (first: {g.inconclusive[0][3]})", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def dispatch(argv) -> int:
    args = parse_args(argv)

    if args.command == "preset":
        if args.action == "list":
            _emit(args, {"presets": preset_names()}, preset_names())
            return EXIT_OK
        pres = preset(args.name or args.preset)
        text = format_presentation(pres)
        _emit(args, {"name": pres.name, "text": text}, [text.rstrip()])
        return EXIT_OK

    ctx = _context(args)
    fmt = lambda a: format_multifraction(ctx, a)
    if "multifraction" in args:
        a = parse_multifraction(ctx, args.multifraction)

    if args.command in ("reduce", "rreduce"):
        fn = red.reduce_left if args.command == "reduce" else red.reduce_right
        tr = fn(ctx, a, args.strategy)
        payload = {
            "input": fmt(a),
            "strategy": args.strategy,
            "moves": [m.to_json(ctx) for m in tr.moves],
            "steps": len(tr.moves),
            "end": fmt(tr.end),
        }
        _emit(args, payload, [m.label(ctx) for m in tr.moves] + ["-> " + fmt(tr.end)])
        return EXIT_OK

    if args.command == "derdiv":
        out = red.derdiv(ctx, a)
        _emit(args, {"input": fmt(a), "derdiv": fmt(out)}, [fmt(out)])
        return EXIT_OK

    if args.command == "redtame":
        out = red.red_tame(ctx, a)
        _emit(args, {"input": fmt(a), "red_tame": fmt(out)}, [fmt(out)])
        return EXIT_OK

    if args.command == "irr":
        g = red.reduct_graph(ctx, a)
        irr = sorted(fmt(x) for x in g.sinks())
        _emit(args, {"input": fmt(a), "irreducible": irr}, irr)
        return _graph_verdict(g)

    if args.command == "graph":
        g = red.reduct_graph(ctx, a, Side(args.side))
        if args.dot or args.format == "text":
            print(g.to_dot(ctx))
        else:
            _emit(args, g.to_json(ctx))
        return _graph_verdict(g)

    if args.command == "wordproblem":
        w = parse_signed_word(ctx, args.word)
        result = harness.word_problem(ctx, w)
        verdict = result["verdict"]
        line = verdict
        if verdict == "nontrivial":
            line += " (unconditional)" if result["unconditional"] else " (conditional on semi-convergence)"
        _emit(args, result, [line])
        return EXIT_INCONCLUSIVE if verdict == "inconclusive" else EXIT_OK

    if args.command == "conjecture":
        config = harness.CampaignConfig(
            preset=ctx.pres.name,
            conjecture=args.which,
            depth=args.depth,
            length=args.length,
            trials=args.trials,
            seed=args.seed,
            jobs=args.jobs,
        )
        harness.check_config(config)  # before the log is opened, which truncates it
        log_stream = open(args.log, "w") if args.log else None
        try:
            report = harness.run_campaign(ctx, config, log_stream=log_stream)
        finally:
            if log_stream:
                log_stream.close()
        payload = report.to_json(include_timing=False)
        summary = {k: v for k, v in payload.items() if k != "records"}
        if args.format != "json":
            payload = summary
        _emit(args, payload, [json.dumps(summary, sort_keys=True)])
        if report.counterexample is not None:
            paths = harness.dump_counterexample(ctx, report.counterexample, args.dump_dir)
            print(f"counterexample dumped: {paths}", file=sys.stderr)
            return EXIT_COUNTEREXAMPLE
        if report.counts.get("inconclusive"):
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    if args.command == "vankampen":
        try:
            diagram = van_kampen(ctx, a)
        except ValueError as e:  # an input van_kampen does not take
            raise MultiredError(str(e)) from e
        _emit(
            args,
            diagram.to_json(ctx),
            [
                f"vertices: {len(diagram.vertices)}",
                f"triangles: {len(diagram.triangles)}",
                "boundary ok",
            ],
        )
        return EXIT_OK

    if args.command == "basics":
        table = ctx.basic_table(Side(args.side))
        names = [ctx.word_str(b) for b in table.basics]
        _emit(
            args,
            {
                "side": args.side,
                "count": len(names),
                "C": table.C,
                "basics": names,
                "complement_pairs": len(table.complement),
                "no_multiple_pairs": len(table.no_multiple),
            },
            names,
        )
        return EXIT_OK

    if args.command == "threeore":
        report = harness.three_ore_scan(ctx, args.maxlen, Side(args.side))
        _emit(args, report, [f"violations: {report['violations']}"])
        return EXIT_INCONCLUSIVE if report["inconclusive"] else EXIT_OK

    if args.command == "cycleprobe":
        report = harness.mixed_cycle_probe(ctx, args.iterations)
        _emit(args, report, [r["value"] for r in report["iterations"]])
        return EXIT_OK

    raise AssertionError(args.command)


def main(argv=None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except CapExceeded as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (MultiredError, PresentationError, VanKampenFailure, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
