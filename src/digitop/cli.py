"""Command line workbench over the library.

Layout: ``digitop <group> <command> [args] [options]``.  Options follow the
final subcommand.  Exit codes: 0 for a completed query (whatever the
answer), 1 when a check fails (a discontinuous map, a failing verification
report), 2 for malformed input or usage errors.

With ``--format json`` every result row is one JSON object per line with
sorted keys; diagnostics still go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .enumeration import EnumerationBudget, count_continuous_maps, enumerate_continuous_maps
from .errors import ContinuityError, InvalidInputError
from .fileio import dump_image, load_image, load_map, load_map_or_image
from .homotopy import (
    are_homotopic,
    homotopy_class,
    is_contractible,
    is_rigid_image,
    is_rigid_map,
)
from .homotopy_spectra import hcs, hfs, mc, mcf, self_coincidence_sequence
from .images import components, is_connected
from .maps import DigitalMap
from .spectra import (
    coincidence_spectrum,
    coincidence_spectrum_union,
    common_fixed_spectrum,
    common_fixed_spectrum_union,
    fixed_point_spectrum,
)
from .verify import RunConfig, conjecture_search, run_suite

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_TIME_BUDGET = 60.0
UNBUDGETED_MAX_POINTS = 10


def _budget_for(args, images) -> EnumerationBudget | None:
    """Explicit flags win; otherwise big inputs get a safety budget.

    A ``--limit`` option, where the command has one, caps the result count.
    """
    limit = getattr(args, "limit", None)
    if args.budget_nodes is not None or args.budget_time is not None:
        return EnumerationBudget(
            max_results=limit, max_nodes=args.budget_nodes, time_budget=args.budget_time
        )
    if max((img.n_points for img in images), default=0) > UNBUDGETED_MAX_POINTS:
        return EnumerationBudget(
            max_results=limit, max_nodes=DEFAULT_NODE_BUDGET, time_budget=DEFAULT_TIME_BUDGET
        )
    if limit is not None:
        return EnumerationBudget(max_results=limit)
    return None


def _emit(args, obj: dict, text: str) -> None:
    """Print one result row: ``obj`` as a JSON line with ``--format json``, else ``text``."""
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _spectrum_row(kind: str, spectrum) -> dict:
    row = {
        "kind": kind,
        "values": sorted(spectrum.values),
        "exact": spectrum.exact,
    }
    if spectrum.i is not None:
        row["i"] = spectrum.i
    if spectrum.stabilized_at is not None:
        row["stabilized_at"] = spectrum.stabilized_at
    return row


def _spectrum_text(kind: str, spectrum) -> str:
    body = "{" + ", ".join(str(v) for v in sorted(spectrum.values)) + "}"
    notes = [] if spectrum.exact else ["budget tripped; values are a lower approximation"]
    if spectrum.stabilized_at is not None:
        notes.append(f"stabilizes at arity {spectrum.stabilized_at}")
    suffix = f"  ({'; '.join(notes)})" if notes else ""
    return f"{kind} = {body}{suffix}"


# ---------------------------------------------------------------------------
# handlers

def cmd_image_info(args) -> int:
    img = load_image(args.source)
    comps = components(img)
    row = {
        "name": img.name,
        "n_points": img.n_points,
        "dimension": img.dimension,
        "n_edges": len(img.edges),
        "connected": is_connected(img),
        "n_components": len(comps),
        "component_sizes": sorted(len(c) for c in comps),
        "totally_disconnected": not img.edges,
        "degree_sequence": list(img.degree_sequence()),
    }
    text = "\n".join(
        [
            f"name: {row['name'] or '(unnamed)'}",
            f"points: {row['n_points']} (dimension {row['dimension']})",
            f"edges: {row['n_edges']}",
            f"connected: {row['connected']}"
            + ("" if row["connected"] else f" ({row['n_components']} components, sizes {row['component_sizes']})"),
            f"totally disconnected: {row['totally_disconnected']}",
            f"degree sequence: {row['degree_sequence']}",
        ]
    )
    _emit(args, row, text)
    return 0


def cmd_image_build(args) -> int:
    name = args.name if args.name.startswith("builtin:") else f"builtin:{args.name}"
    img = load_image(name)
    if args.output:
        dump_image(img, args.output)
        print(f"wrote {img.n_points} points to {args.output}", file=sys.stderr)
    else:
        print(dump_image(img))
    return 0


def cmd_map_check(args) -> int:
    try:
        m = load_map(args.map)
    except ContinuityError as exc:
        row = {"continuous": False, "edge": list(exc.edge), "values": list(exc.values)}
        _emit(
            args,
            row,
            f"not continuous: points {exc.edge} are adjacent but their values {exc.values} are not",
        )
        return 1
    _emit(
        args,
        {"continuous": True, "n_points": m.domain.n_points},
        f"continuous map on {m.domain.n_points} points",
    )
    return 0


def cmd_map_apply(args) -> int:
    m = load_map(args.map)
    if args.point is not None:
        if not 0 <= args.point < m.domain.n_points:
            raise InvalidInputError(
                f"point index {args.point} out of range 0..{m.domain.n_points - 1}"
            )
        value = m(args.point)
        row = {
            "point": args.point,
            "point_coords": list(m.domain.points[args.point]),
            "value": value,
            "value_coords": list(m.codomain.points[value]),
        }
        _emit(
            args,
            row,
            f"{m.domain.points[args.point]} -> {m.codomain.points[value]} (index {value})",
        )
        return 0
    row = {"assignment": list(m.assignment)}
    _emit(args, row, " ".join(str(v) for v in m.assignment))
    return 0


def cmd_maps_count(args) -> int:
    x_img = load_image(args.domain)
    y_img = load_image(args.codomain)
    budget = _budget_for(args, [x_img, y_img])
    count, exhausted = count_continuous_maps(x_img, y_img, budget)
    row = {"count": count, "exhaustive": exhausted}
    text = f"{count} continuous maps" if exhausted else f"at least {count} continuous maps (budget tripped)"
    _emit(args, row, text)
    return 0


def cmd_maps_enumerate(args) -> int:
    x_img = load_image(args.domain)
    y_img = load_image(args.codomain)
    budget = _budget_for(args, [x_img, y_img])
    outcome = enumerate_continuous_maps(x_img, y_img, budget)
    for m in outcome.maps:
        _emit(args, {"assignment": list(m.assignment)}, " ".join(str(v) for v in m.assignment))
    status = "exhaustive" if outcome.exhausted else "truncated"
    print(f"{len(outcome.maps)} maps ({status})", file=sys.stderr)
    return 0


def cmd_homotopy_class(args) -> int:
    f = load_map(args.map)
    budget = _budget_for(args, [f.domain, f.codomain])
    cls = homotopy_class(f, budget)
    for a in cls.assignments:
        _emit(args, {"assignment": list(a)}, " ".join(str(v) for v in a))
    status = "complete" if cls.complete else "truncated"
    print(f"{len(cls.assignments)} maps in class ({status})", file=sys.stderr)
    return 0


def cmd_are_homotopic(args) -> int:
    f = load_map(args.map_f)
    g = load_map(args.map_g)
    budget = _budget_for(args, [f.domain, f.codomain])
    answer = are_homotopic(f, g, budget)
    row = {"verdict": answer.verdict}
    text = answer.verdict
    if answer.witness is not None:
        row["chain_length"] = len(answer.witness.chain)
        row["chain"] = [list(m.assignment) for m in answer.witness.chain]
        text = f"yes (one-step chain of {len(answer.witness.chain)} maps)"
    _emit(args, row, text)
    return 0


def cmd_rigid(args) -> int:
    loaded = load_map_or_image(args.source)
    if isinstance(loaded, DigitalMap):
        rigid = is_rigid_map(loaded)
        subject = "map"
    else:
        rigid = is_rigid_image(loaded)
        subject = "image"
    _emit(args, {"subject": subject, "rigid": rigid}, f"{subject} rigid: {rigid}")
    return 0


def cmd_contractible(args) -> int:
    img = load_image(args.source)
    budget = _budget_for(args, [img])
    verdict = is_contractible(img, budget)
    _emit(args, {"verdict": verdict}, f"contractible: {verdict}")
    return 0


def cmd_spectrum_tuple(args) -> int:
    """CS_i(X,Y) or CFS_i(X), or their union up to --i-max."""
    if args.command == "cs":
        images, of = [load_image(args.domain), load_image(args.codomain)], "(X,Y)"
        single, union = coincidence_spectrum, coincidence_spectrum_union
    else:
        images, of = [load_image(args.source)], "(X)"
        single, union = common_fixed_spectrum, common_fixed_spectrum_union
    label = args.command.upper()
    budget = _budget_for(args, images)
    if args.union:
        s = union(*images, args.i_max, budget)
        kind = f"{label}{of} up to arity {args.i_max}"
    else:
        s = single(*images, args.i, budget)
        kind = f"{label}_{args.i}{of}"
    _emit(args, _spectrum_row(kind, s), _spectrum_text(kind, s))
    return 0


def cmd_spectrum_f(args) -> int:
    img = load_image(args.source)
    budget = _budget_for(args, [img])
    s = fixed_point_spectrum(img, budget)
    _emit(args, _spectrum_row("F(X)", s), _spectrum_text("F(X)", s))
    return 0


def _emit_min(args, label: str, value, exact: bool) -> None:
    row = {"kind": label, "value": value, "exact": exact}
    if value is None:
        text = f"{label}: unknown (budget tripped)"
    else:
        text = f"{label} = {value}" + ("" if exact else "  (upper bound; budget tripped)")
    _emit(args, row, text)


def cmd_hspectrum_classes(args) -> int:
    """HCS, HFS, MC or MCF of the given maps, by subcommand name.

    hfs and mcf reject non-self-maps before any homotopy class is computed.
    """
    func = {"hcs": hcs, "hfs": hfs, "mc": mc, "mcf": mcf}[args.command]
    maps = [load_map(p) for p in args.maps]
    budget = _budget_for(args, [maps[0].domain, maps[0].codomain])
    kind = f"{args.command.upper()} of {len(maps)} maps"
    if args.command in ("hcs", "hfs"):
        values = func(maps, budget).values
        _emit(args, _spectrum_row(kind, values), _spectrum_text(kind, values))
    else:
        _emit_min(args, kind, *func(maps, budget))
    return 0


def cmd_hspectrum_mj(args) -> int:
    img = load_image(args.source)
    budget = _budget_for(args, [img])
    seq = self_coincidence_sequence(img, args.j_max, budget)
    for j, value, exact in seq.entries:
        text = f"m_{j} = {value}" + ("" if exact else "  (upper bound; budget tripped)")
        _emit(args, {"j": j, "value": value, "exact": exact}, text)
    return 0


def _emit_reports(args, reports) -> int:
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for report in reports:
        counts[report.verdict] += 1
        text = f"[{report.verdict:>7}] {report.check_id}: {report.instance} ({report.elapsed:.3f}s)"
        if report.verdict == "fail":
            text += f"\n          details: {json.dumps(report.details, sort_keys=True)}"
        _emit(args, report.to_json_dict(), text)
    summary = f"{counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped"
    print(summary, file=sys.stderr)
    return 1 if counts["fail"] else 0


def cmd_verify(args) -> int:
    config = RunConfig(
        budget=_budget_for(args, []),
        i_max=args.i_max,
        j_max=args.j_max,
        seed=args.seed,
        random_instances=args.instances,
        max_random_points=args.max_points,
    )
    return _emit_reports(args, run_suite(args.suite, config))


def cmd_conjecture(args) -> int:
    config = RunConfig(
        budget=_budget_for(args, []),
        i_max=args.i_max,
        j_max=args.j_max,
        seed=args.seed,
    )
    return _emit_reports(
        args, conjecture_search(args.max_x, args.max_y, args.i_max, config)
    )


# ---------------------------------------------------------------------------
# parser

def _env_node_budget() -> int | None:
    raw = os.environ.get("DIGITOP_BUDGET_NODES")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(
            f"DIGITOP_BUDGET_NODES must be a decimal integer, got {raw!r}"
        ) from None


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--budget-nodes",
        type=int,
        default=_env_node_budget(),
        help="abort searches after this many extension steps",
    )
    common.add_argument(
        "--budget-time",
        type=float,
        default=None,
        help="abort searches after this many seconds",
    )
    common.add_argument("--i-max", type=int, default=4, help="largest tuple arity")
    common.add_argument("--j-max", type=int, default=4, help="largest j for m_j")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0)
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="digitop",
        description="workbench for coincidence and fixed-point spectra of digital images",
    )
    top = parser.add_subparsers(dest="group", required=True)

    image = top.add_parser("image", help="inspect or materialize images").add_subparsers(
        dest="command", required=True
    )
    p = image.add_parser("info", parents=[common], help="summary of an image")
    p.add_argument("source", help="image file or builtin:<name>")
    p.set_defaults(func=cmd_image_info)
    p = image.add_parser("build", parents=[common], help="write a builtin image as JSON")
    p.add_argument("name", help="builtin name, e.g. cube or cycle:5")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_image_build)

    map_group = top.add_parser("map", help="check or apply a single map").add_subparsers(
        dest="command", required=True
    )
    p = map_group.add_parser("check", parents=[common], help="validate continuity")
    p.add_argument("map", help="map file")
    p.set_defaults(func=cmd_map_check)
    p = map_group.add_parser("apply", parents=[common], help="evaluate at a point")
    p.add_argument("map", help="map file")
    p.add_argument("--point", type=int, default=None, help="point index; omit for all")
    p.set_defaults(func=cmd_map_apply)

    maps_group = top.add_parser("maps", help="the space of continuous maps").add_subparsers(
        dest="command", required=True
    )
    p = maps_group.add_parser("count", parents=[common])
    p.add_argument("domain")
    p.add_argument("codomain")
    p.set_defaults(func=cmd_maps_count)
    p = maps_group.add_parser("enumerate", parents=[common])
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("--limit", type=int, default=None, help="stop after this many maps")
    p.set_defaults(func=cmd_maps_enumerate)

    homotopy_group = top.add_parser("homotopy", help="deformation questions").add_subparsers(
        dest="command", required=True
    )
    p = homotopy_group.add_parser("class", parents=[common], help="members of a homotopy class")
    p.add_argument("map")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_homotopy_class)
    p = homotopy_group.add_parser("are-homotopic", parents=[common])
    p.add_argument("map_f")
    p.add_argument("map_g")
    p.set_defaults(func=cmd_are_homotopic)
    p = homotopy_group.add_parser("rigid", parents=[common], help="rigidity of a map or image")
    p.add_argument("source", help="image, builtin:<name>, or map file")
    p.set_defaults(func=cmd_rigid)
    p = homotopy_group.add_parser("contractible", parents=[common])
    p.add_argument("source")
    p.set_defaults(func=cmd_contractible)

    spectrum_group = top.add_parser("spectrum", help="exact spectra over map tuples").add_subparsers(
        dest="command", required=True
    )
    for name, positionals, help_text in (
        ("cs", ("domain", "codomain"), "coincidence spectrum"),
        ("cfs", ("source",), "common-fixed-point spectrum"),
    ):
        p = spectrum_group.add_parser(name, parents=[common], help=help_text)
        for positional in positionals:
            p.add_argument(positional)
        p.add_argument("--i", type=int, default=2, help="tuple arity")
        p.add_argument("--union", action="store_true", help="union over arities up to --i-max")
        p.set_defaults(func=cmd_spectrum_tuple)
    p = spectrum_group.add_parser("f", parents=[common], help="fixed-point spectrum")
    p.add_argument("source")
    p.set_defaults(func=cmd_spectrum_f)

    hspectrum_group = top.add_parser(
        "hspectrum", help="spectra over homotopy classes"
    ).add_subparsers(dest="command", required=True)
    for name in ("hcs", "hfs", "mc", "mcf"):
        p = hspectrum_group.add_parser(name, parents=[common])
        p.add_argument("maps", nargs="+", help="map files")
        p.set_defaults(func=cmd_hspectrum_classes)
    p = hspectrum_group.add_parser("mj", parents=[common], help="self-coincidence sequence")
    p.add_argument("source")
    p.set_defaults(func=cmd_hspectrum_mj)

    p = top.add_parser("verify", parents=[common], help="run a machine-check suite")
    p.add_argument("suite", choices=("paper-fixtures", "random-small", "all"))
    p.add_argument("--instances", type=int, default=40, help="random instances per batch")
    p.add_argument("--max-points", type=int, default=6, help="largest random image")
    p.set_defaults(func=cmd_verify)

    p = top.add_parser("conjecture", parents=[common], help="spectrum stabilization sweep")
    p.add_argument("--max-x", type=int, default=6, help="largest domain size")
    p.add_argument("--max-y", type=int, default=3, help="largest edgeless codomain size")
    p.set_defaults(func=cmd_conjecture)

    return parser


def cli_dispatch(argv=None) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    except ContinuityError as exc:
        print(f"error: map is not continuous: {exc}", file=sys.stderr)
        return 2
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
