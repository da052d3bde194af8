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
wall_s fields that --stats writes to stderr.  Everything else is.
"""

from __future__ import annotations

import argparse
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
from .refine import compute_partition, recorded_runs
from .semantics import check_kb, eval_concept, eval_concept_qs, eval_role, least_r_extension
from .syntax import ast_size, parse_concept, parse_role, to_text

EXPLAIN_LIMIT = 40_000
# largest witness, in tree nodes, that `witness` prints; a tree node
# prints as about five characters, so the output stays near 20 MB or less
WITNESS_LIMIT = 2 ** 22


def _load(args) -> Workspace:
    if args.input == "-":
        return loads_workspace(sys.stdin.read())
    return load_workspace(args.input)


def _phi_of(ws: Workspace, args) -> FeatureSet:
    if getattr(args, "phi", None) is not None:
        try:
            return FeatureSet.from_string(args.phi)
        except ValueError as exc:
            raise DocumentError(str(exc))
    return ws.phi if ws.phi is not None else FeatureSet()


def _emit(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
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


def cmd_partition(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    phi = _phi_of(ws, args)
    partition = largest_auto_bisimulation(phi, interp)
    names = ws.element_names[args.interpretation]
    if args.json:
        order, bounds = partition._runs
        _emit(dumps_blocks(order, bounds, partition.canonical_order, names), args.output)
    else:
        # without names to_lines writes each element's index, which is its
        # name in an index domain
        display = None if isinstance(names, IndexNames) else names
        _emit("\n".join(partition.to_lines(display)) + "\n", args.output)
    return 0


def cmd_minimize(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    phi = _phi_of(ws, args)
    partition = largest_auto_bisimulation(phi, interp)
    names = ws.element_names[args.interpretation]
    qnames = tuple(names[partition.blocks[b][0]] for b in partition.canonical_order)
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
    _emit(dumps_document(doc), args.output)
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
        _emit(dumps_pairs(pairs, ws.element_names[args.left], ws.element_names[args.right]),
              args.output)
        return 0 if pairs is not None else 1
    size = bisimulation_size(phi, ia, ib)
    if size is not None:
        _emit("BISIMILAR\npairs: %d\n" % size, args.output)
        return 0
    lines = ["NOT BISIMILAR"]
    if ia.n * ib.n <= EXPLAIN_LIMIT:
        log = []
        try:
            naive_largest_bisimulation(phi, ia, ib, max_pairs=EXPLAIN_LIMIT, log=log)
        except TooLargeError:
            log = []
        if log:
            lines.append(_format_record(log[0], ws, args.left, args.right))
    _emit("\n".join(lines) + "\n", args.output)
    return 1


def cmd_eval(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    phi = _phi_of(ws, args)
    names = ws.element_names[args.interpretation]
    if args.role is not None:
        pairs = eval_role(interp, parse_role(args.role), phi)
        body = "".join("%s %s\n" % (names[x], names[y]) for x, y in sorted(pairs))
        _emit(body, args.output)
        return 0
    node = parse_concept(args.concept)
    if args.qs:
        qsi = ws.qs.get(args.interpretation) or qs_embedding(interp)
        ext = eval_concept_qs(qsi, node, phi)
    else:
        ext = eval_concept(interp, node, phi)
    _emit("".join(names[x] + "\n" for x in sorted(ext)), args.output)
    return 0


def cmd_check_kb(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    phi = _phi_of(ws, args)
    if ws.kb is None:
        raise DocumentError("document has no kb section")
    report = check_kb(interp, ws.kb, phi)
    _emit("\n".join(report.to_lines()) + "\n", args.output)
    return 0 if report.ok else 1


def cmd_witness(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    phi = _phi_of(ws, args)
    x = _element_ref(ws, args.interpretation, args.left)
    y = _element_ref(ws, args.interpretation, args.right)
    trace = compute_partition(phi, to_labeled_graph(interp))[1]
    try:
        witness = separating_concept(interp, trace, x, y)
    except NotSeparatedError:
        _emit("NOT SEPARATED\n", args.output)
        return 1
    size = ast_size(witness.concept)
    if size > WITNESS_LIMIT:
        raise TooLargeError("separating concept has %d nodes as a tree, above the print limit of %d"
                            % (size, WITNESS_LIMIT))
    _emit(to_text(witness.concept) + "\n", args.output)
    return 0


def cmd_extend_rbox(args) -> int:
    ws = _load(args)
    interp = ws.interpretation(args.interpretation)
    if ws.kb is None:
        raise DocumentError("document has no kb section")
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
    _emit(dumps_document(doc), args.output)
    return 0


def cmd_gen(args) -> int:
    doc = random_document(args.seed, args.n, args.concepts, args.roles,
                          args.individuals, args.phi or "",
                          args.edge_density, args.concept_density)
    _emit(dumps_document(doc), args.output)
    return 0


def cmd_bench(args) -> int:
    try:
        phi = FeatureSet.from_string(args.phi or "")
    except ValueError as exc:
        raise DocumentError(str(exc))
    sizes = []
    for part in args.sizes.split(","):
        part = part.strip()
        if not part.isdigit() or int(part) <= 0:
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
    _emit("\n".join(rows) + "\n", args.output)
    return 0


def _add_stats(sp):
    sp.add_argument("--stats", action="store_true",
                    help="print the counters and wall time of every refinement run "
                         "as one JSON object on stderr")


def _add_io(sp, interp=True, output=True, json_flag=False):
    sp.add_argument("--input", "-i", required=True,
                    help="workspace document path, or - for stdin")
    sp.add_argument("--phi", default=None,
                    help="feature letters (I O Q U S); overrides the document")
    if interp:
        sp.add_argument("--interpretation", "-I", required=True,
                        help="name of the interpretation inside the document")
    if output:
        sp.add_argument("--output", "-o", default="-",
                        help="output path, or - for stdout (default)")
    if json_flag:
        sp.add_argument("--json", action="store_true", help="emit JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlbisim",
        description="bisimulation tools for finite description logic interpretations",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("partition", help="coarsest stable partition of one interpretation")
    _add_io(sp, json_flag=True)
    _add_stats(sp)
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("minimize", help="quotient by the coarsest stable partition")
    _add_io(sp)
    sp.add_argument("--qs", action="store_true",
                    help="attach edge multiplicities and self loops to the quotient")
    _add_stats(sp)
    sp.set_defaults(func=cmd_minimize)

    sp = sub.add_parser("bisim", help="decide whether two interpretations are bisimilar")
    sp.add_argument("--input", "-i", required=True)
    sp.add_argument("--phi", default=None)
    sp.add_argument("--left", "-l", required=True, help="name of the left interpretation")
    sp.add_argument("--right", "-r", required=True, help="name of the right interpretation")
    sp.add_argument("--output", "-o", default="-")
    sp.add_argument("--json", action="store_true")
    _add_stats(sp)
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
    _add_stats(sp)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("extend-rbox",
                        help="close an interpretation under the kb role axioms")
    _add_io(sp)
    sp.set_defaults(func=cmd_extend_rbox)

    sp = sub.add_parser("gen", help="write a seeded random workspace document")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--concepts", type=int, default=2)
    sp.add_argument("--roles", type=int, default=2)
    sp.add_argument("--individuals", type=int, default=2)
    sp.add_argument("--phi", default="")
    sp.add_argument("--edge-density", type=float, default=0.15)
    sp.add_argument("--concept-density", type=float, default=0.5)
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("bench", help="time the refinement kernel, report CSV")
    sp.add_argument("--sizes", default="10000,20000,40000,80000",
                    help="comma separated node counts")
    sp.add_argument("--roles", type=int, default=3)
    sp.add_argument("--concepts", type=int, default=2)
    sp.add_argument("--max-out", type=int, default=4)
    sp.add_argument("--phi", default="Q")
    sp.add_argument("--engine", choices=("numpy",), default="numpy",
                    help="refinement engine to time; numpy, the signature rounds, is the only one")
    sp.add_argument("--repeats", type=int, default=3)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def _run(args) -> int:
    """The command; with --stats, then its refinements on stderr."""
    if not getattr(args, "stats", False):
        return args.func(args)
    with recorded_runs() as runs:
        code = args.func(args)
    sys.stderr.write(json.dumps({"command": args.command, "refinements": runs}) + "\n")
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
