"""Command line front end over JSON workspace documents.

Commands read a document (see the document module for the schema),
act on one or two named interpretations, and write deterministic text
or JSON to stdout or a file.  Exit codes are uniform across commands:

    0  success, or an affirmative verdict (bisimilar, all axioms hold)
    1  a negative verdict (not bisimilar, axiom fails, not separated)
    2  malformed input: JSON syntax or concept grammar
    3  well-formed but invalid: schema, names, ranges, feature misuse,
       or a result above a stated limit (WITNESS_LIMIT)
    4  unexpected internal failure

The `bench` command times the partition refinement on seeded random
graphs and emits CSV.  Timing figures are the only part of the output
that is not reproducible byte for byte: bench's millis column, and the
wall_s, load_s, graph_s, quotient_s, witness_s, validate_s, eval_s and
write_s fields that --stats writes to stderr.  Everything else is.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

from .bisim import (
    bisimulation_pairs,
    bisimulation_size,
    largest_auto_bisimulation,
    naive_largest_bisimulation,
)
from .core import FeatureSet, qs_embedding, to_labeled_graph
from .document import (
    MAX_ELEMENTS,
    IndexNames,
    InterpretationBody,
    Workspace,
    dumps_blocks,
    dumps_document,
    dumps_pairs,
    load_workspace,
    loads_workspace,
    signature_to_json,
)
from .errors import BisimError, DocumentError, NotSeparatedError, ParseError, TooLargeError
from .gen import benchmark_graph, random_document
from .quotient import qs_quotient, quotient_interpretation, separating_concept
from .refine import compute_partition
from .semantics import (
    check_kb,
    eval_concept,
    eval_concept_qs,
    eval_role,
    least_r_extension,
)
from .stats import recorded, timed
from .syntax import ast_size, parse_concept, parse_role, to_text

EXPLAIN_LIMIT = 40_000
# largest witness, in tree nodes, that `witness` prints; a tree node
# prints as about five characters, so the output stays near 20 MB or less
WITNESS_LIMIT = 2 ** 22


def _load(args) -> Workspace:
    with timed("load_s"):
        if args.input == "-":
            return loads_workspace(sys.stdin.buffer.read())
        return load_workspace(args.input)


def _phi_of(ws: Workspace, args) -> FeatureSet:
    if getattr(args, "phi", None) is not None:
        try:
            return FeatureSet.from_string(args.phi)
        except ValueError as exc:
            raise DocumentError(str(exc))
    return ws.phi if ws.phi is not None else FeatureSet()


def _write(args, render) -> None:
    """Writes render(), the command's output text, to args.output; the
    formatting and the writing are timed together as write_s."""
    with timed("write_s"):
        text = render()
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)


def _element_ref(ws: Workspace, iname: str, ref: str) -> int:
    try:
        return ws.resolve(iname, ref)
    except DocumentError as unknown:
        if not ref.lstrip("-").isdigit():
            raise
        try:
            index = int(ref)
        except ValueError:  # "--1", "²", or more digits than int() reads
            raise unknown from None
        return ws.resolve(iname, index)


def _names_of(names, elements) -> list[str]:
    """The names of the elements; an index domain makes them in one pass."""
    if isinstance(names, IndexNames):
        return names.of(elements)
    return list(map(names.__getitem__, elements))


def cmd_partition(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    phi = _phi_of(ws, args)
    partition = largest_auto_bisimulation(phi, interp)
    names = ws.element_names[args.interpretation]
    if args.json:
        order, bounds = partition._runs
        _write(args, lambda: dumps_blocks(order, bounds, partition.canonical_order, names))
    else:
        if isinstance(names, IndexNames):
            # without names to_lines writes each element's index, which is
            # its name in an index domain without a prefix
            names = names.of(range(len(names))) if names.prefix else None
        _write(args, lambda: "\n".join(partition.to_lines(names)) + "\n")
    return 0


def cmd_minimize(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    phi = _phi_of(ws, args)
    partition = largest_auto_bisimulation(phi, interp)
    names = ws.element_names[args.interpretation]
    with timed("quotient_s"):
        # each block's smallest element, the first of its run, names it
        order, bounds = partition._runs
        firsts = order[bounds[:-1]][list(partition.canonical_order)].tolist()
        qnames = _names_of(names, firsts)
        if args.qs:
            qsi = qs_quotient(interp, partition)
            body = InterpretationBody(qsi.base, qnames, qsi)
        else:
            body = InterpretationBody(quotient_interpretation(interp, partition), qnames)
    doc = {
        "signature": signature_to_json(interp.signature),
        "interpretations": {args.interpretation: body},
    }
    if str(phi):
        doc["phi"] = str(phi)
    _write(args, lambda: dumps_document(doc))
    return 0


def _format_record(rec, ws: Workspace, lname: str, rname: str) -> str:
    if rec.left is not None and rec.right is not None:
        return "condition %d fails at (%s, %s)" % (
            rec.condition, ws.display(lname, rec.left), ws.display(rname, rec.right))
    if rec.left is not None:
        return "condition %d fails: %s has no partner" % (
            rec.condition, ws.display(lname, rec.left))
    return "condition %d fails: %s has no partner" % (
        rec.condition, ws.display(rname, rec.right))


def cmd_bisim(args) -> int:
    ws = _load(args)
    ia = ws.interpretation(args.left)
    ib = ws.interpretation(args.right)
    phi = _phi_of(ws, args)
    if args.json:
        pairs = bisimulation_pairs(phi, ia, ib)
        _write(args, lambda: dumps_pairs(pairs, ws.element_names[args.left],
                                         ws.element_names[args.right]))
        return 0 if pairs is not None else 1
    size = bisimulation_size(phi, ia, ib)
    if size is not None:
        _write(args, lambda: "BISIMILAR\npairs: %d\n" % size)
        return 0
    lines = ["NOT BISIMILAR"]
    if ia.n * ib.n <= EXPLAIN_LIMIT:
        log = []
        with timed("explain_s"):
            naive_largest_bisimulation(phi, ia, ib, log=log)
        if log:
            lines.append(_format_record(log[0], ws, args.left, args.right))
    _write(args, lambda: "\n".join(lines) + "\n")
    return 1


def cmd_eval(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    phi = _phi_of(ws, args)
    names = ws.element_names[args.interpretation]
    if args.role is not None:
        with timed("eval_s"):
            pairs = eval_role(interp, parse_role(args.role), phi)
        _write(args, lambda: "".join("%s %s\n" % (names[x], names[y]) for x, y in sorted(pairs)))
        return 0
    with timed("eval_s"):
        node = parse_concept(args.concept)
        if args.qs:
            qsi = ws.qs.get(args.interpretation) or qs_embedding(interp)
            ext = eval_concept_qs(qsi, node, phi)
        else:
            ext = eval_concept(interp, node, phi)
    _write(args, lambda: "".join(name + "\n" for name in _names_of(names, sorted(ext))))
    return 0


def cmd_check_kb(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    phi = _phi_of(ws, args)
    if ws.kb is None:
        raise DocumentError("document has no kb section")
    with timed("eval_s"):
        report = check_kb(interp, ws.kb, phi)
    _write(args, lambda: "\n".join(report.to_lines()) + "\n")
    return 0 if report.ok else 1


def cmd_witness(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    phi = _phi_of(ws, args)
    x = _element_ref(ws, args.interpretation, args.left)
    y = _element_ref(ws, args.interpretation, args.right)
    # the concept is read off the levels up to the one where x and y part
    trace = compute_partition(phi, to_labeled_graph(interp), watch=[(x, y)])[1]
    try:
        witness = separating_concept(interp, trace, x, y)
    except NotSeparatedError:
        _write(args, lambda: "NOT SEPARATED\n")
        return 1
    size = ast_size(witness.concept)
    if size > WITNESS_LIMIT:
        raise TooLargeError("separating concept has %d nodes as a tree, above the print limit of %d"
                            % (size, WITNESS_LIMIT))
    _write(args, lambda: to_text(witness.concept) + "\n")
    return 0


def cmd_extend_rbox(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    if ws.kb is None:
        raise DocumentError("document has no kb section")
    with timed("closure_s"):
        closed = least_r_extension(interp, ws.kb.rbox)
    doc = {
        "signature": signature_to_json(interp.signature),
        "interpretations": {
            args.interpretation: InterpretationBody(
                closed, ws.element_names[args.interpretation]),
        },
    }
    if ws.phi is not None and str(ws.phi):
        doc["phi"] = str(ws.phi)
    if ws.kb_strings is not None:
        doc["kb"] = {section: list(rows) for section, rows in ws.kb_strings.items()}
    _write(args, lambda: dumps_document(doc))
    return 0


def cmd_gen(args) -> int:
    if args.n > MAX_ELEMENTS:
        raise TooLargeError("--n is %d, more than the limit of %d elements" % (args.n, MAX_ELEMENTS))
    doc = random_document(args.seed, args.n, args.concepts, args.roles,
                          args.individuals, args.phi or "",
                          args.edge_density, args.concept_density)
    _write(args, lambda: dumps_document(doc))
    return 0


def cmd_bench(args) -> int:
    try:
        phi = FeatureSet.from_string(args.phi or "")
    except ValueError as exc:
        raise DocumentError(str(exc))
    sizes = []
    for part in args.sizes.split(","):
        part = part.strip()
        # only ASCII digits, no more of them than an array size has, reach
        # int(): isdigit() also takes other scripts' digits and superscripts
        if (not (part.isascii() and part.isdigit()) or len(part) > len(str(sys.maxsize))
                or int(part) <= 0):
            raise DocumentError("sizes must be positive integers, got %r" % part)
        sizes.append(int(part))

    warm = benchmark_graph(args.seed, 256, args.roles, args.concepts, args.max_out)
    compute_partition(phi, warm, want_trace=False)

    rows = ["n,sigma,millis"]
    for n in sizes:
        graph = benchmark_graph(args.seed, n, args.roles, args.concepts, args.max_out)
        best = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            compute_partition(phi, graph, want_trace=False)
            best = min(best, (time.perf_counter() - start) * 1000.0)
        rows.append("%d,%d,%.3f" % (n, args.roles, best))
    _write(args, lambda: "\n".join(rows) + "\n")
    return 0


def _at_least(low: int):
    """An argparse type: an integer of at least low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    return integer


def _fraction(text: str) -> float:
    """An argparse type: a number from 0 to 1."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("must be from 0 to 1, got %s" % text)
    return value


def _add_io(sp, interp=True, json_flag=False):
    """The options every document command shares."""
    sp.add_argument("--input", "-i", required=True,
                    help="workspace document path, or - for stdin")
    sp.add_argument("--phi", default=None,
                    help="feature letters (I O Q U S); overrides the document")
    if interp:
        sp.add_argument("--interpretation", "-I", required=True,
                        help="name of the interpretation inside the document")
    sp.add_argument("--output", "-o", default="-",
                    help="output path, or - for stdout (default)")
    if json_flag:
        sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sp.add_argument("--stats", action="store_true",
                    help="print the counters and wall time of every refinement run, "
                         "the counters of the preimage searches and of the document load, "
                         "and the wall time of each layer (load, graph build, quotient, "
                         "witness build and validation, evaluation, output write, "
                         "bisim's pair lists and explanation, extend-rbox's closure), "
                         "as one JSON object on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlbisim",
        description="bisimulation tools for finite description logic interpretations",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("partition", help="coarsest stable partition of one interpretation")
    _add_io(sp, json_flag=True)
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("minimize", help="quotient by the coarsest stable partition")
    _add_io(sp)
    sp.add_argument("--qs", action="store_true",
                    help="attach edge multiplicities and self loops to the quotient")
    sp.set_defaults(func=cmd_minimize)

    sp = sub.add_parser("bisim", help="decide whether two interpretations are bisimilar")
    _add_io(sp, interp=False, json_flag=True)
    sp.add_argument("--left", "-l", required=True, help="name of the left interpretation")
    sp.add_argument("--right", "-r", required=True, help="name of the right interpretation")
    sp.set_defaults(func=cmd_bisim)

    sp = sub.add_parser("eval", help="evaluate a concept or role over one interpretation")
    _add_io(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--concept", "-c", help="concept in the text grammar")
    group.add_argument("--role", help="role in the text grammar")
    sp.add_argument("--qs", action="store_true",
                    help="count over the document's multiplicity data")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("check-kb", help="evaluate every kb axiom over one interpretation")
    _add_io(sp)
    sp.set_defaults(func=cmd_check_kb)

    sp = sub.add_parser("witness", help="concept separating two non-bisimilar elements")
    _add_io(sp)
    sp.add_argument("--left", "-l", required=True, help="first element (name or index)")
    sp.add_argument("--right", "-r", required=True, help="second element (name or index)")
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("extend-rbox",
                        help="close an interpretation under the kb role axioms")
    _add_io(sp)
    sp.set_defaults(func=cmd_extend_rbox)

    sp = sub.add_parser("gen", help="write a seeded random workspace document")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=_at_least(1), default=8,
                    help="elements, from 1 to document.MAX_ELEMENTS")
    sp.add_argument("--concepts", type=_at_least(0), default=2)
    sp.add_argument("--roles", type=_at_least(0), default=2)
    sp.add_argument("--individuals", type=_at_least(0), default=2)
    sp.add_argument("--phi", default="")
    sp.add_argument("--edge-density", type=_fraction, default=0.15)
    sp.add_argument("--concept-density", type=_fraction, default=0.5)
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("bench", help="time the refinement kernel, report CSV")
    sp.add_argument("--sizes", default="10000,20000,40000,80000",
                    help="comma separated node counts")
    sp.add_argument("--roles", type=_at_least(0), default=3)
    sp.add_argument("--concepts", type=_at_least(0), default=2)
    sp.add_argument("--max-out", type=_at_least(0), default=4)
    sp.add_argument("--phi", default="Q")
    sp.add_argument("--engine", choices=("numpy",), default="numpy",
                    help="refinement engine to time; numpy, the signature rounds, is the only one")
    sp.add_argument("--repeats", type=_at_least(1), default=3)
    sp.add_argument("--seed", type=_at_least(0), default=7)
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def _run(args) -> int:
    """The command; with --stats, then the stats.Record of its work as one
    JSON object on stderr."""
    if not getattr(args, "stats", False):
        return args.func(args)
    with recorded() as record:
        code = args.func(args)
    sys.stderr.write(json.dumps({"command": args.command, "refinements": record.runs,
                                 "searches": dataclasses.asdict(record.searches),
                                 "load": dataclasses.asdict(record.load),
                                 **record.times}) + "\n")
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except BisimError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - last resort
        print("internal error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
