"""Command-line front end.

Subcommands cover the full pipeline: instance analysis, minimization,
degree-3 structuring, code construction and verification, triple
classification, canonical example generation, exhaustive search, and DOT
export.  Exit status encodes the verdict: 0 for success, 1 for a negative
analysis result (infeasible triple, failed verification, exhausted search
with no code), 2 for usage, input, or budget errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .constructors import assign_1m, assign_133, route_uniform
from .flows import connectivity_level, cutset_infeasible
from .graph import (
    InstanceError,
    UnicastInstance,
    load_instance,
    save_instance,
    serialize_instance,
)
from .netcode import (
    CodeError,
    NetworkCode,
    load_code,
    propagate,
    save_code,
    verify_code,
)
from .oracle import (
    DEFAULT_BUDGET,
    brute_force_routing,
    brute_force_scalar,
    classify_triple,
    gen_113,
    gen_222,
    gen_232,
    gen_23_rate21,
    gen_fig1,
)
from .transform import GADGET, minimize, structure

GENERATORS = {
    "fig1": gen_fig1,
    "fig2a": gen_222,
    "fig2b": gen_113,
    "fig3": gen_23_rate21,
    "cor232": gen_232,
}

_WITNESS_GENERATORS = {
    "gen_222": gen_222,
    "gen_113": gen_113,
    "gen_232": gen_232,
}

_PALETTE = (
    "crimson",
    "royalblue",
    "forestgreen",
    "darkorange",
    "purple",
    "teal",
    "saddlebrown",
    "deeppink",
)


def _fmt_vec(values: Sequence[int]) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def cmd_analyze(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    levels = connectivity_level(inst)
    print(f"nodes {inst.n_nodes}")
    print(f"edges {inst.n_edges}")
    for i, s in enumerate(inst.sessions):
        src, dst = inst.names[s.source], inst.names[s.terminal]
        print(f"session {i + 1}: {src} -> {dst} rate {s.rate} flow {levels[i]}")
    print(f"RESULT: connectivity {_fmt_vec(levels)}")
    witness = cutset_infeasible(inst)
    if witness is not None:
        sess = ",".join(str(i + 1) for i in witness.sessions)
        nodes = ",".join(inst.names[v] for v in witness.nodes)
        edges = ",".join(str(e) for e in witness.cut_edges)
        print(
            f"WITNESS: capacity {witness.capacity} rate {witness.required_rate}"
            f" sessions {sess} nodes {nodes} edges {edges}"
        )
        return 1
    return 0


def cmd_minimize(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    result = minimize(inst)
    save_instance(result.instance, args.output)
    with open(args.output + ".map", "w", encoding="utf-8") as fh:
        fh.write("# edge map: new id -> original id\n")
        for new_id, old_id in enumerate(result.edge_map):
            fh.write(f"edge {new_id} {old_id}\n")
        for old_id in sorted(result.removed):
            fh.write(f"removed {old_id}\n")
    print(f"RESULT: removed {len(result.removed)}")
    return 0


def cmd_structure(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    result = structure(inst)
    save_instance(result.instance, args.output)
    with open(args.output + ".map", "w", encoding="utf-8") as fh:
        fh.write("# edge map: new id -> original id, 'gadget' for crossbar\n")
        for v in result.gadget_nodes:
            fh.write(f"node {inst.names[v]} gadget\n")
        for new_id, old_id in enumerate(result.origin):
            tag = "gadget" if old_id == GADGET else str(old_id)
            fh.write(f"edge {new_id} {tag}\n")
    print(f"RESULT: gadgets {len(result.gadget_nodes)}")
    return 0


def _pick_construction(inst: UnicastInstance, q: int) -> NetworkCode | int:
    """Route the instance to a construction, or return an exit status."""
    levels = connectivity_level(inst)
    rates = tuple(s.rate for s in inst.sessions)
    n = len(levels)
    uniform = len(set(levels)) == 1
    if uniform and all(r == 1 for r in rates) and n <= levels[0]:
        return route_uniform(inst, q)
    if n == 2 and rates[0] == 1 and levels == (1, rates[1] + 1):
        return assign_1m(inst, q)
    if n == 3 and all(r == 1 for r in rates):
        s = sorted(levels)
        if s[1] >= 3 and s[2] >= 3:
            return assign_133(inst, q)
        if all(1 <= k <= 3 for k in levels):
            print("RESULT: infeasible per classification")
            return 1
    print(f"RESULT: no applicable construction for connectivity {_fmt_vec(levels)}")
    return 1


def cmd_code(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    try:
        picked = _pick_construction(inst, args.q)
    except CodeError as exc:
        print(f"RESULT: construction failed: {exc}")
        return 1
    if isinstance(picked, int):
        return picked
    result = verify_code(inst, picked)
    for report in result.reports:
        verdict = "pass" if report.passed else "fail"
        print(f"terminal {report.session + 1}: {verdict}")
    save_code(picked, args.output)
    print(f"CODE: {args.output}")
    print(f"RESULT: code q={picked.q} T={picked.T} written {args.output}")
    return 0 if result.all_pass else 1


def _decoder_terms(report_edges: tuple[int, ...], vec: Sequence[int]) -> str:
    terms = [f"{c}*e{e}" for e, c in zip(report_edges, vec) if c]
    return " + ".join(terms) if terms else "0"


def cmd_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    code, _ = load_code(args.code)
    result = verify_code(inst, code)
    expanded = code.validate(inst)
    for report in result.reports:
        if not report.passed:
            print(f"terminal {report.session + 1}: fail")
            continue
        offset = expanded.symbol_offsets()[report.session]
        parts = [
            f"x{offset + k} = {_decoder_terms(report.in_edges, d)}"
            for k, d in enumerate(report.decoders)
        ]
        print(f"terminal {report.session + 1}: pass " + "; ".join(parts))
    if result.all_pass:
        print("RESULT: verified")
        return 0
    print("RESULT: verification failed")
    return 1


def cmd_classify(args: argparse.Namespace) -> int:
    verdict = classify_triple(tuple(args.triple))
    shown = _fmt_vec(args.triple)
    if verdict.feasible:
        print(f"RESULT: triple {shown} feasible strategy {verdict.strategy}")
        return 0
    print(f"RESULT: triple {shown} infeasible witness {verdict.witness}")
    if args.emit_witness:
        if verdict.witness in _WITNESS_GENERATORS:
            path = args.output or f"{verdict.witness}.txt"
            save_instance(_WITNESS_GENERATORS[verdict.witness](), path)
            print(f"WITNESS: {verdict.witness} written {path}")
        else:
            print("WITNESS: none (characterization-only)")
    return 1


def cmd_gen(args: argparse.Namespace) -> int:
    inst = GENERATORS[args.id]()
    if args.output:
        save_instance(inst, args.output)
        print(f"RESULT: written {args.output}")
    else:
        sys.stdout.write(serialize_instance(inst))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    if args.mode == "routing":
        report = brute_force_routing(inst, args.T, budget=args.budget, jobs=args.jobs)
    else:
        report = brute_force_scalar(
            inst, args.q, args.T, budget=args.budget, jobs=args.jobs
        )
    code_ref = "none"
    if report.code is not None:
        if args.output:
            save_code(report.code, args.output)
            print(f"CODE: {args.output}")
            code_ref = args.output
        else:
            code_ref = "found"
    print(f"RESULT: {report.summary(code_ref)}")
    if report.code is not None:
        return 0
    return 1 if report.exhausted else 2


def _dot_lines(inst: UnicastInstance, code: NetworkCode | None) -> list[str]:
    roles: dict[int, list[str]] = {}
    colors: dict[int, str] = {}
    for i, s in enumerate(inst.sessions):
        color = _PALETTE[i % len(_PALETTE)]
        roles.setdefault(s.source, []).append(f"s{i + 1}")
        roles.setdefault(s.terminal, []).append(f"t{i + 1}")
        colors.setdefault(s.source, color)
        colors.setdefault(s.terminal, color)
    labels: dict[int, str] = {}
    if code is not None:
        vectors = propagate(inst, code)
        for eid in range(inst.n_edges):
            copies = [
                ",".join(str(c) for c in vectors[eid * code.T + tau])
                for tau in range(code.T)
            ]
            labels[eid] = " | ".join(copies)
    lines = ["digraph instance {", "  rankdir=LR;"]
    for v in range(inst.n_nodes):
        name = inst.names[v]
        attrs = []
        if v in roles:
            attrs.append(f'label="{name} ({",".join(roles[v])})"')
            attrs.append(f'color="{colors[v]}"')
            attrs.append("penwidth=2")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{name}"{suffix};')
    for eid, (u, v) in enumerate(inst.edges):
        label = f"e{eid}"
        if eid in labels:
            label += f": {labels[eid]}"
        lines.append(f'  "{inst.names[u]}" -> "{inst.names[v]}" [label="{label}"];')
    lines.append("}")
    return lines


def cmd_export_dot(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    code = None
    if args.code:
        code, _ = load_code(args.code)
    text = "\n".join(_dot_lines(inst, code)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"RESULT: written {args.output}")
    else:
        sys.stdout.write(text)
    return 0


# built on the first call to main, not at import; argparse keeps no state
# between parse_args calls, so one parser serves every call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcode-unicast",
        description="Analysis and code construction for multiple unicast"
        " on directed acyclic unit-capacity networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="connectivity vector and cut-set check")
    p.add_argument("instance")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("minimize", help="drop edges not needed for connectivity")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("structure", help="reduce internal degrees to <= 3")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("code", help="construct a code for the instance")
    p.add_argument("instance")
    p.add_argument("--q", type=int, default=2, help="field size (prime)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("verify", help="check a code file against an instance")
    p.add_argument("instance")
    p.add_argument("code")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="feasibility of a connectivity triple")
    p.add_argument("triple", type=int, nargs=3, metavar="K")
    p.add_argument("--emit-witness", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gen", help="write a canonical example instance")
    p.add_argument("id", choices=sorted(GENERATORS))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search", help="exhaustive code search")
    p.add_argument("instance")
    p.add_argument("--q", type=int, default=2, help="field size (prime)")
    p.add_argument("--T", type=int, default=1, help="vector length")
    p.add_argument("--mode", choices=("linear", "routing"), default="linear")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export-dot", help="emit a Graphviz drawing")
    p.add_argument("instance")
    p.add_argument("--code")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, CodeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
