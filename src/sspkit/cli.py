"""Command-line interface.

Subcommands: build, skeleton, diameter, facets, path, verify.
Files are JSON (see serialize); skeletons can also leave as DOT. Exit code
0 means every requested check passed; bad input, or a stdout whose reader
is gone, exits 2 with a message.

Start-up is most of a short call's wall time, so each cmd_* imports only the
layers it runs: the condition-E kernels (skeleton) for skeleton, diameter
and path, oracle for --oracle, geometry for facets, families for build,
matroids for --family matroid and matroid-independence files (read with an
axiom check), and verify, whose suites import their own. At module level cli
loads only serialize and graphs, which holds the polytope model.
For the same reason argv is read against one option table, COMMANDS, and
not by argparse, whose import (with gettext) and parser set-up cost more
than reading the handful of options a call has. Run as the program (argv
None), main freezes the collector once stdout is flushed, so that the
collections CPython runs at exit skip what start-up made; main(argv), as
called in process, leaves the collector alone.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace
from typing import Callable, NoReturn, Optional, Sequence

from . import serialize
from .graphs import FACET_DIM_CAP, FACET_VERTEX_CAP, ZeroOnePolytope, birkhoff_restrict


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_text(fields: dict, output: Optional[str]) -> None:
    """One line of "name value" pairs, for --format text."""
    _emit(" ".join(f"{k} {v}" for k, v in fields.items()) + "\n", output)


def cmd_build(args: SimpleNamespace) -> int:
    from .families import FAMILY_BUILDERS, check_edge_count, check_stable_set_count

    fam = args.family
    if fam in ("relation", "chain", "matroid") and not args.input:
        raise ValueError(f"--family {fam} needs --input")
    if fam == "matroid":
        p = serialize.matroid_from_json(_read_json(args.input))
        if args.birkhoff:
            from .matroids import basis_polytope

            p = basis_polytope(p)
    else:
        if fam == "relation":
            g = serialize.relation_graph_from_json(_read_json(args.input))
        elif fam == "chain":
            g = serialize.poset_from_json(_read_json(args.input))
        else:  # the option table admits only FAMILY_BUILDERS' names here
            if args.n is None:
                raise ValueError(f"--family {fam} needs --n")
            check_stable_set_count(fam, args.n)
            check_edge_count(fam, args.n)
            g = FAMILY_BUILDERS[fam](args.n)
        p = birkhoff_restrict(g) if args.birkhoff else ZeroOnePolytope.from_graph(g)
    _emit(serialize.dumps(serialize.polytope_to_json(p)), args.output)
    return 0


def cmd_skeleton(args: SimpleNamespace) -> int:
    p = serialize.polytope_from_json(_read_json(args.input))
    if args.oracle:
        from .oracle import build_skeleton_oracle

        s = build_skeleton_oracle(p)
    else:
        from .skeleton import build_skeleton_E

        s = build_skeleton_E(p)
    if args.format == "dot":
        _emit(serialize.skeleton_to_dot(p, s), args.output)
    elif args.format == "text":
        _emit_text({
            "vertices": s.vertex_count, "edges": s.edge_count,
            "provenance": s.provenance,
        }, args.output)
    else:
        _emit(serialize.skeleton_json(p, s), args.output)
    return 0


def cmd_diameter(args: SimpleNamespace) -> int:
    from .skeleton import build_skeleton_E, diameter

    p = serialize.polytope_from_json(_read_json(args.input))
    s = build_skeleton_E(p)
    d = diameter(s)
    report = {
        "diameter": d if d is not None else "disconnected",
        "rank": p.rank,
        "bound_holds": d is not None and d <= p.rank,
        "vertices": s.vertex_count,
        "edges": s.edge_count,
    }
    if args.format == "text":
        _emit_text(
            {k: report[k] for k in ("diameter", "rank", "bound_holds")}, args.output
        )
    else:
        _emit(serialize.dumps(report), args.output)
    return 0


def cmd_facets(args: SimpleNamespace) -> int:
    from .geometry import classify_inequality, enumerate_facets

    p = serialize.polytope_from_json(_read_json(args.input))
    facets = enumerate_facets(p, args.facet_vertex_cap, args.facet_dim_cap)
    out = serialize.facets_to_json(facets)
    counts = {"nonnegativity": 0, "clique": 0, "other": 0}
    others = []
    for q, entry in zip(facets, out["facets"]):
        kind = classify_inequality(q)
        counts[kind] += 1
        if kind == "other":
            others.append(entry)
    out["classification"] = counts
    out["non_clique_facets"] = others
    if args.format == "text":
        _emit_text({"facets": len(facets), **counts}, args.output)
    else:
        _emit(serialize.dumps(out), args.output)
    return 0


def _endpoint(p: ZeroOnePolytope, text: str) -> int:
    labels = json.loads(text)
    if not isinstance(labels, list):
        raise ValueError(
            f"path endpoint must be a JSON list of labels, got {text}"
        )
    return p.ground.mask_of(serialize.decode_label(x) for x in labels)


def cmd_path(args: SimpleNamespace) -> int:
    from .skeleton import flip_path, is_edge_walk

    p = serialize.polytope_from_json(_read_json(args.input))
    walk = flip_path(p, _endpoint(p, args.frm), _endpoint(p, args.to))
    valid = is_edge_walk(p, walk)
    report = {
        "path": [
            [serialize.encode_label(x) for x in p.ground.labels_of(v)]
            for v in walk
        ],
        "hops": len(walk) - 1,
        "rank": p.rank,
        "within_bound": len(walk) - 1 <= p.rank,
        "edges_valid": valid,
    }
    _emit(serialize.dumps(report), args.output)
    return 0 if valid and report["within_bound"] else 1


def cmd_verify(args: SimpleNamespace) -> int:
    from .verify import SUITES, run_suites

    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.seed, args.graphs, args.max_n)
    payload = {"passed": all(r["passed"] for r in reports), "reports": reports}
    _emit(serialize.dumps(payload), args.output)
    for r in reports:
        bad = [c["name"] for c in r["checks"] if not c["passed"]]
        line = f"suite {r['suite']}: {'pass' if r['passed'] else 'FAIL'}"
        if bad:
            line += f" ({len(bad)} failing: {', '.join(bad[:5])})"
        print(line, file=sys.stderr)
    return 0 if payload["passed"] else 1


REQUIRED = ...  # the default of an option that must be given
# command: (handler, help, {option: (default, kind)}); kind is bool (a flag),
# int, str or a tuple of choices, spelled out so that parsing imports no layer
# past graphs and serialize (tests pin the choices to FAMILY_BUILDERS and
# SUITES; the facet caps are graphs' constants, which serialize loads anyway).
COMMANDS = {
    "build": (cmd_build, "write a polytope JSON file (--input for relation, chain "
              "and matroid; --birkhoff keeps the top cardinality)", {
        "--family": (REQUIRED, ("bell", "complete", "empty", "nc", "nn", "rook",
                                "relation", "chain", "matroid")),
        "--n": (None, int), "--input": (None, str), "--birkhoff": (False, bool),
        "--output": (None, str)}),
    "skeleton": (cmd_skeleton, "compute the edge graph (--oracle: by LP instead of "
                 "the unique-sum test)", {
        "--input": (REQUIRED, str), "--oracle": (False, bool),
        "--format": ("json", ("json", "dot", "text")), "--output": (None, str)}),
    "diameter": (cmd_diameter, "skeleton diameter and rank bound", {
        "--input": (REQUIRED, str), "--format": ("json", ("json", "text")),
        "--output": (None, str)}),
    "facets": (cmd_facets, "complete facet list (double description)", {
        "--input": (REQUIRED, str), "--facet-vertex-cap": (FACET_VERTEX_CAP, int),
        "--facet-dim-cap": (FACET_DIM_CAP, int),
        "--format": ("json", ("json", "text")), "--output": (None, str)}),
    "path": (cmd_path, "edge walk between two vertices, each a JSON label list", {
        "--input": (REQUIRED, str), "--from": (REQUIRED, str), "--to": (REQUIRED, str),
        "--output": (None, str)}),
    "verify": (cmd_verify, "run a cross-validation suite", {
        "--suite": (REQUIRED, ("diameter-bounds", "facets-always", "matroid-E",
                               "oracle-vs-E", "partitions", "prop62", "remark43",
                               "all")),
        "--seed": (7, int), "--graphs": (200, int), "--max-n": (6, int),
        "--output": (None, str)}),
}


def _usage(cmd: Optional[str], full: bool = False) -> str:
    """The usage line; with full, the help text that -h prints."""
    if cmd is None:
        words = ["usage: sspkit [-h] {" + ",".join(COMMANDS) + "} ..."]
        more = ["0/1-polytope skeletons, facets, and verification suites", ""]
        more += [f"  {name:<11} {entry[1]}" for name, entry in COMMANDS.items()]
    else:
        words, more = [f"usage: sspkit {cmd} [-h]"], [COMMANDS[cmd][1]]
        for option, (default, kind) in COMMANDS[cmd][2].items():
            if type(kind) is tuple:  # --format defaults to its first choice
                option += " {" + ",".join(kind) + "}"
            elif kind is not bool:  # an int default stands in for its value
                option += " " + str(default if kind is int and default else
                                    option[2:].upper())
            words.append(option if default is REQUIRED else f"[{option}]")
    line = " ".join(words)
    return "\n\n".join([line, "\n".join(more)]) + "\n" if full else line


def _fail(cmd: Optional[str], message: str) -> NoReturn:
    prog = "sspkit" if cmd is None else f"sspkit {cmd}"
    print(_usage(cmd), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: Sequence[str]) -> tuple[Callable[..., int], SimpleNamespace]:
    """The handler of argv's command, and its options by attribute name
    (--max-n as max_n, --from as frm). A value may follow its option or an
    "=" and start with "-"; the last of a repeated option counts, and no
    prefix is accepted. -h prints help and exits 0; usage errors exit 2."""
    cmd, *rest = argv or [""]
    if cmd in ("-h", "--help"):
        print(_usage(None, full=True), end="", flush=True)
        raise SystemExit(0)
    if cmd not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {cmd!r}" if argv else
              "the following arguments are required: command")
    fn, _, table = COMMANDS[cmd]
    values = {option: default for option, (default, _) in table.items()}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            print(_usage(cmd, full=True), end="", flush=True)
            raise SystemExit(0)
        option, eq, value = token.partition("=")
        kind = table.get(option, (None, None))[1]
        if kind is None or kind is bool and eq:
            _fail(cmd, f"unrecognized arguments: {token}")
        if kind is bool:
            value = True
        elif not eq and (value := next(tokens, None)) is None:
            _fail(cmd, f"argument {option}: expected one argument")
        if type(kind) is tuple and value not in kind:
            _fail(cmd, f"argument {option}: invalid choice: {value!r} (choose from "
                  + ", ".join(kind) + ")")
        try:
            values[option] = int(value) if kind is int else value
        except ValueError:
            _fail(cmd, f"argument {option}: invalid int value: {value!r}")
    if missing := [option for option, value in values.items() if value is REQUIRED]:
        _fail(cmd, "the following arguments are required: " + ", ".join(missing))
    dest = {o: "frm" if o == "--from" else o[2:].replace("-", "_") for o in values}
    return fn, SimpleNamespace(**{dest[o]: v for o, v in values.items()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:  # _parse flushes help, so a closed pipe is caught below there too
        fn, args = _parse(sys.argv[1:] if argv is None else argv)
        code = fn(args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
        if argv is None:  # run as the program: the collections CPython runs
            gc.freeze()  # at exit then skip every object alive now
        return code
    except BrokenPipeError as exc:
        # stdout's reader is gone: point fd 1 at devnull, so the
        # interpreter's last flush of what is left is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: input is missing required key {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # json and the label codecs recurse per level
        print("error: input is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
