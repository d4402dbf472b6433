"""Command-line interface.

Subcommands: build, skeleton, diameter, facets, path, verify, export-dot.
Files are JSON (see serialize); skeletons can also leave as DOT. Exit code
0 means every requested check passed; bad input exits 2 with a message.

Start-up is most of a short call's wall time, so each cmd_* imports only the
layers it runs: geometry for --oracle and facets, families for build (and
matroids for --family matroid), and verify, whose suites import their own.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import serialize
from .skeleton import (
    ZeroOnePolytope,
    birkhoff_restrict,
    build_skeleton_E,
    diameter,
    flip_path,
    is_edge_walk,
)

# The parser's choices are spelled out so that parsing imports neither
# families nor verify; tests pin them to FAMILY_BUILDERS and SUITES.
FAMILIES = [
    "bell", "complete", "empty", "nc", "nn", "rook", "relation", "chain", "matroid",
]
SUITE_CHOICES = [
    "diameter-bounds", "facets-always", "matroid-E", "oracle-vs-E",
    "partitions", "prop62", "remark43", "all",
]


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args: argparse.Namespace) -> int:
    from .families import (
        FAMILY_BUILDERS,
        build_comparability_graph,
        check_edge_count,
        check_stable_set_count,
    )

    fam = args.family
    if fam == "matroid":
        from .matroids import basis_polytope, independence_polytope

        if not args.input:
            raise ValueError("--family matroid needs --input with matroid JSON")
        m = serialize.matroid_from_json(_read_json(args.input))
        p = basis_polytope(m) if args.birkhoff else independence_polytope(m)
    else:
        if fam == "relation":
            if not args.input:
                raise ValueError("--family relation needs --input")
            g = serialize.relation_graph_from_json(_read_json(args.input))
        elif fam == "chain":
            if not args.input:
                raise ValueError("--family chain needs --input")
            g = build_comparability_graph(
                serialize.poset_from_json(_read_json(args.input))
            )
        elif fam in FAMILY_BUILDERS:
            if args.n is None:
                raise ValueError(f"--family {fam} needs --n")
            check_stable_set_count(fam, args.n)
            check_edge_count(fam, args.n)
            g = FAMILY_BUILDERS[fam](args.n)
        else:
            raise ValueError(f"unknown family {fam!r}")
        p = birkhoff_restrict(g) if args.birkhoff else ZeroOnePolytope.from_graph(g)
    _emit(serialize.dumps(serialize.polytope_to_json(p)), args.output)
    return 0


def _load_polytope(path: str) -> ZeroOnePolytope:
    return serialize.polytope_from_json(_read_json(path))


def cmd_skeleton(args: argparse.Namespace) -> int:
    p = _load_polytope(args.input)
    if args.oracle:
        from .geometry import build_skeleton_oracle

        s = build_skeleton_oracle(p)
    else:
        s = build_skeleton_E(p)
    if args.format == "dot":
        labels = [p.ground.labels_of(v) for v in p.vertices]
        _emit(serialize.skeleton_to_dot(labels, s), args.output)
    elif args.format == "text":
        _emit(
            f"vertices {s.vertex_count} edges {len(s.edges)} "
            f"provenance {s.provenance}\n",
            args.output,
        )
    else:
        _emit(serialize.dumps(serialize.skeleton_to_json(p, s)), args.output)
    return 0


def cmd_diameter(args: argparse.Namespace) -> int:
    p = _load_polytope(args.input)
    s = build_skeleton_E(p)
    d = diameter(s)
    report = {
        "diameter": d if d is not None else "disconnected",
        "rank": p.rank,
        "bound_holds": d is not None and d <= p.rank,
        "vertices": s.vertex_count,
        "edges": len(s.edges),
    }
    if args.format == "text":
        _emit(
            f"diameter {report['diameter']} rank {report['rank']} "
            f"bound_holds {report['bound_holds']}\n",
            args.output,
        )
    else:
        _emit(serialize.dumps(report), args.output)
    return 0


def cmd_facets(args: argparse.Namespace) -> int:
    from .geometry import classify_inequality, enumerate_facets

    p = _load_polytope(args.input)
    facets = enumerate_facets(
        p, vertex_cap=args.facet_vertex_cap, dim_cap=args.facet_dim_cap
    )
    out = serialize.facets_to_json(facets)
    counts = {"nonnegativity": 0, "clique": 0, "other": 0}
    others = []
    for q, entry in zip(facets, out["facets"]):
        kind = classify_inequality(q, p.graph)
        counts[kind] += 1
        if kind == "other":
            others.append(entry)
    out["classification"] = counts
    out["non_clique_facets"] = others
    if args.format == "text":
        _emit(
            f"facets {len(facets)} nonnegativity {counts['nonnegativity']} "
            f"clique {counts['clique']} other {counts['other']}\n",
            args.output,
        )
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


def cmd_path(args: argparse.Namespace) -> int:
    p = _load_polytope(args.input)
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


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SUITES, run_suites

    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(
        names, seed=args.seed, graphs=args.graphs, max_n=args.max_n
    )
    payload = {
        "passed": all(r.passed for r in reports),
        "reports": [r.to_json() for r in reports],
    }
    _emit(serialize.dumps(payload), args.output)
    for r in reports:
        bad = [c.name for c in r.checks if not c.passed]
        line = f"suite {r.suite}: {'pass' if r.passed else 'FAIL'}"
        if bad:
            line += f" ({len(bad)} failing: {', '.join(bad[:5])})"
        print(line, file=sys.stderr)
    return 0 if payload["passed"] else 1


def cmd_export_dot(args: argparse.Namespace) -> int:
    verts, s = serialize.skeleton_from_json(_read_json(args.input))
    _emit(serialize.skeleton_to_dot(verts, s), args.output)
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sspkit",
        description="0/1-polytope skeletons, facets, and verification suites",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write a polytope JSON file")
    b.add_argument("--family", required=True, choices=FAMILIES)
    b.add_argument("--n", type=int)
    b.add_argument("--input", help="JSON payload for relation/chain/matroid")
    b.add_argument(
        "--birkhoff",
        action="store_true",
        help="restrict to the top cardinality (bases for matroids)",
    )
    b.add_argument("--output")
    b.set_defaults(fn=cmd_build)

    s = sub.add_parser("skeleton", help="compute the edge graph")
    s.add_argument("--input", required=True)
    s.add_argument(
        "--oracle",
        action="store_true",
        help="use the LP adjacency oracle instead of the unique-sum test",
    )
    s.add_argument("--format", choices=("json", "dot", "text"), default="json")
    s.add_argument("--output")
    s.set_defaults(fn=cmd_skeleton)

    d = sub.add_parser("diameter", help="skeleton diameter and rank bound")
    d.add_argument("--input", required=True)
    d.add_argument("--format", choices=("json", "text"), default="json")
    d.add_argument("--output")
    d.set_defaults(fn=cmd_diameter)

    f = sub.add_parser("facets", help="complete facet list (double description)")
    f.add_argument("--input", required=True)
    f.add_argument("--facet-vertex-cap", type=int, default=1500)
    f.add_argument("--facet-dim-cap", type=int, default=28)
    f.add_argument("--format", choices=("json", "text"), default="json")
    f.add_argument("--output")
    f.set_defaults(fn=cmd_facets)

    pa = sub.add_parser("path", help="constructive edge walk between vertices")
    pa.add_argument("--input", required=True)
    pa.add_argument("--from", dest="frm", required=True, help="JSON label list")
    pa.add_argument("--to", dest="to", required=True, help="JSON label list")
    pa.add_argument("--output")
    pa.set_defaults(fn=cmd_path)

    v = sub.add_parser("verify", help="run a cross-validation suite")
    v.add_argument("--suite", required=True, choices=SUITE_CHOICES)
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--graphs", type=int, default=200)
    v.add_argument("--max-n", type=int, default=6)
    v.add_argument("--output")
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("export-dot", help="skeleton JSON to DOT")
    e.add_argument("--input", required=True)
    e.add_argument("--output")
    e.set_defaults(fn=cmd_export_dot)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
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
