"""Command-line front end.

Each subcommand accepts only the options it reads.  Every subcommand
that builds a monoid context takes --preset, --presentation-file and
--format; `preset` takes --preset and --format.  --strategy belongs to
`reduce` and `rreduce`, --seed and --jobs to `conjecture`.

Exit codes: 0 success, 1 counterexample found, 2 inconclusive, 3 usage or
input error.  A reader that closes stdout early (`| head`) drops the rest
of the output, quietly, and the exit code stays the command's own.  All
output is deterministic for a fixed argv and seed; reports are JSON with
--format json, graphs are DOT.  The MULTIRED_CAPS
environment variable overrides caps, e.g.
MULTIRED_CAPS="reversing_cap=20000,graph_node_cap=100000".  `irr` and
`graph` print what they found of an incomplete reduct graph and exit 2.
A usage error names the offending argument on stderr.  A plain command
line, each argument a subcommand's option spelled in full, its value or a
positional, is read off a table of each subcommand's options; argparse's
parser of every subcommand reads the rest: help, an abbreviated option,
--opt=value, and every line it refuses.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import NamedTuple

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
from .vankampen import van_kampen

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

# the top-level help, for users; the module docstring is for readers of the
# code
_DESCRIPTION = (
    "Multifraction reduction in homogeneous gcd-monoids: reduce "
    "multifractions, list their reducts, decide the word problem and run "
    "seeded conjecture campaigns.  Exit codes: 0 success, 1 counterexample "
    "found, 2 inconclusive, 3 usage or input error.  The MULTIRED_CAPS "
    "environment variable overrides caps, e.g. "
    'MULTIRED_CAPS="reversing_cap=20000,graph_node_cap=100000".'
)


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


def _write(lines) -> None:
    """Print the lines to stdout.  A reader that closes the pipe early
    (`multired ... | head`) ends the output, not the run: stdout is then
    pointed at the null device, which takes the rest of the output and the
    flush at exit, and the command still exits with its own code."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _emit(args, payload: dict, text_lines=None):
    if args.format == "json":
        _write([json.dumps(payload, indent=2, sort_keys=True)])
    else:
        _write(text_lines if text_lines is not None else [json.dumps(payload, sort_keys=True)])


class _Option(NamedTuple):
    """An option: its flag, the kind of its value (str or int; bool for a
    flag that stores True), its default and the values it may take."""

    flag: str
    kind: type = str
    default: object = None
    choices: tuple | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Positional(NamedTuple):
    name: str
    choices: tuple | None = None
    optional: bool = False


_FORMAT = _Option("--format", default="text", choices=("text", "json"))
# the options every subcommand that builds a context reads
_CONTEXT = (_Option("--preset", default="A2tilde"), _Option("--presentation-file"), _FORMAT)
_MULTIFRACTION = (_Positional("multifraction"),)
_STRATEGY = (_Option("--strategy", default="low_lex", choices=red.STRATEGIES), *_CONTEXT)


def _side(default):
    return _Option("--side", default=default, choices=("left", "right"))


# subcommand -> (help, positionals, options), in the order help lists them
SUBCOMMANDS = {
    "preset": ("list or show presets",
               (_Positional("action", ("list", "show")), _Positional("name", optional=True)),
               (_Option("--preset", default="A2tilde"), _FORMAT)),
    "reduce": ("exhaust atomic left reductions", _MULTIFRACTION, _STRATEGY),
    "rreduce": ("exhaust atomic right reductions", _MULTIFRACTION, _STRATEGY),
    "derdiv": ("maximal divisions, top level down", _MULTIFRACTION, _CONTEXT),
    "redtame": ("greatest tame reductions along the universal sequence", _MULTIFRACTION,
                _CONTEXT),
    "irr": ("irreducible left reducts", _MULTIFRACTION, _CONTEXT),
    "graph": ("atomic reduct graph", _MULTIFRACTION,
              (_side("left"), _Option("--dot", bool, False), *_CONTEXT)),
    "wordproblem": ("decide whether a signed word is the group unit", (_Positional("word"),),
                    _CONTEXT),
    "conjecture": ("seeded conjecture campaign", (_Positional("which", harness.CONJECTURES),),
                   (_Option("--depth", int, 4), _Option("--length", int, 20),
                    _Option("--trials", int, 100), _Option("--log"),
                    _Option("--dump-dir", default="counterexamples"), _Option("--seed", int, 0),
                    _Option("--jobs", int, 1), *_CONTEXT)),
    "vankampen": ("universal-shape diagram for a unital multifraction", _MULTIFRACTION,
                  _CONTEXT),
    "basics": ("basic elements and complement table size", (), (_side("right"), *_CONTEXT)),
    "threeore": ("bounded scan for 3-Ore violations", (),
                 (_Option("--maxlen", int, 1), _side("right"), *_CONTEXT)),
    "cycleprobe": ("replay the alternating non-terminating cycle", (),
                   (_Option("--iterations", int, 3), *_CONTEXT)),
}


def build_parser() -> _Parser:
    """The parser of every subcommand, its arguments read off SUBCOMMANDS."""
    parser = _Parser(prog="multired", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, positionals, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for pos in positionals:
            p.add_argument(pos.name, nargs="?" if pos.optional else None, choices=pos.choices)
        for opt in options:
            if opt.kind is bool:
                p.add_argument(opt.flag, action="store_true")
            else:
                p.add_argument(opt.flag, type=None if opt.kind is str else opt.kind,
                               default=opt.default, choices=opt.choices)
    return parser


def _read_plain(argv):
    """The namespace `build_parser().parse_args(argv)` gives for a plain
    line, else None.  A line is plain when it names a subcommand and each
    later argument is one of its flags, spelled in full, that flag's value,
    or a positional.  A value does not start with "-", is one of its
    choices, and an int option's value is read by int(), as argparse reads
    it; the positionals stand together, as many as the subcommand takes."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, positionals, options = SUBCOMMANDS[argv[0]]
    flags = {opt.flag: opt for opt in options}
    values = dict.fromkeys(pos.name for pos in positionals)
    values.update((opt.dest, opt.default) for opt in options)
    at = []  # where the positionals stand in argv
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            at.append(i - 1)
            continue
        opt = flags.get(token)
        if opt is None:
            return None
        if opt.kind is bool:
            values[opt.dest] = True
            continue
        if i == len(argv):
            return None
        value = argv[i]
        i += 1
        if value.startswith("-") or opt.choices is not None and value not in opt.choices:
            return None
        if opt.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[opt.dest] = value
    if at and at[-1] - at[0] != len(at) - 1:
        return None
    if not sum(not pos.optional for pos in positionals) <= len(at) <= len(positionals):
        return None
    for pos, j in zip(positionals, at):
        if pos.choices is not None and argv[j] not in pos.choices:
            return None
        values[pos.name] = argv[j]
    return argparse.Namespace(command=argv[0], **values)


def parse_args(argv):
    """The namespace `build_parser().parse_args(argv)` gives.  A plain line
    (see `_read_plain`) is read off SUBCOMMANDS alone; any other line, such
    as help, an abbreviated option, --opt=value, "--", a value starting with
    "-", a bad choice or a missing or extra positional, is read by the
    parser of every subcommand, whose help and usage errors it prints."""
    args = _read_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


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
            _write([g.to_dot(ctx)])
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
            paths = harness.dump_counterexample(ctx, summary["counterexample"], args.dump_dir)
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
                "complement_pairs": len(names) ** 2 - table.no_multiple,
                "no_multiple_pairs": table.no_multiple,
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
    except (MultiredError, PresentationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
