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
    from .verify import RunConfig, run_suite

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
    from .verify import RunConfig, conjecture_search

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


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


# the options of every command, ahead of its own arguments; --budget-nodes
# defaults to DIGITOP_BUDGET_NODES, read each time a parser is built
_COMMON = (
    _arg("--budget-nodes", type=int, help="abort searches after this many extension steps"),
    _arg("--budget-time", type=float, default=None, help="abort searches after this many seconds"),
    _arg("--i-max", type=int, default=4, help="largest tuple arity"),
    _arg("--j-max", type=int, default=4, help="largest j for m_j"),
    _arg("--format", choices=("text", "json"), default="text"),
    _arg("--seed", type=int, default=0),
)
_SOURCE = _arg("source")
_PAIR = (_arg("domain"), _arg("codomain"))
_ARITY = (
    _arg("--i", type=int, default=2, help="tuple arity"),
    _arg("--union", action="store_true", help="union over arities up to --i-max"),
)
_MAPS = _arg("maps", nargs="+", help="map files")

# name -> (help or None, then a group's own table, or a command's handler
# followed by its own arguments)
_COMMANDS = {
    "image": ("inspect or materialize images", {
        "info": ("summary of an image", cmd_image_info,
                 _arg("source", help="image file or builtin:<name>")),
        "build": ("write a builtin image as JSON", cmd_image_build,
                  _arg("name", help="builtin name, e.g. cube or cycle:5"),
                  _arg("-o", "--output", default=None)),
    }),
    "map": ("check or apply a single map", {
        "check": ("validate continuity", cmd_map_check, _arg("map", help="map file")),
        "apply": ("evaluate at a point", cmd_map_apply, _arg("map", help="map file"),
                  _arg("--point", type=int, default=None, help="point index; omit for all")),
    }),
    "maps": ("the space of continuous maps", {
        "count": (None, cmd_maps_count, *_PAIR),
        "enumerate": (None, cmd_maps_enumerate, *_PAIR,
                      _arg("--limit", type=int, default=None, help="stop after this many maps")),
    }),
    "homotopy": ("deformation questions", {
        "class": ("members of a homotopy class", cmd_homotopy_class, _arg("map"),
                  _arg("--limit", type=int, default=None)),
        "are-homotopic": (None, cmd_are_homotopic, _arg("map_f"), _arg("map_g")),
        "rigid": ("rigidity of a map or image", cmd_rigid,
                  _arg("source", help="image, builtin:<name>, or map file")),
        "contractible": (None, cmd_contractible, _SOURCE),
    }),
    "spectrum": ("exact spectra over map tuples", {
        "cs": ("coincidence spectrum", cmd_spectrum_tuple, *_PAIR, *_ARITY),
        "cfs": ("common-fixed-point spectrum", cmd_spectrum_tuple, _SOURCE, *_ARITY),
        "f": ("fixed-point spectrum", cmd_spectrum_f, _SOURCE),
    }),
    "hspectrum": ("spectra over homotopy classes", {
        "hcs": (None, cmd_hspectrum_classes, _MAPS),
        "hfs": (None, cmd_hspectrum_classes, _MAPS),
        "mc": (None, cmd_hspectrum_classes, _MAPS),
        "mcf": (None, cmd_hspectrum_classes, _MAPS),
        "mj": ("self-coincidence sequence", cmd_hspectrum_mj, _SOURCE),
    }),
    "verify": ("run a machine-check suite", cmd_verify,
               _arg("suite", choices=("paper-fixtures", "random-small", "all")),
               _arg("--instances", type=int, default=40, help="random instances per batch"),
               _arg("--max-points", type=int, default=6, help="largest random image")),
    "conjecture": ("spectrum stabilization sweep", cmd_conjecture,
                   _arg("--max-x", type=int, default=6, help="largest domain size"),
                   _arg("--max-y", type=int, default=3, help="largest edgeless codomain size")),
}


def _add_branch(parser, dest: str, table: dict, named: list[str], budget_nodes) -> None:
    """Register every entry of table under parser; fill in only the one named[0] names."""
    branches = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, body, *arguments) in table.items():
        # help=None would list the command on a line of its own in the group's help
        p = branches.add_parser(name, **({} if help_text is None else {"help": help_text}))
        if named[:1] != [name]:
            continue
        if isinstance(body, dict):
            _add_branch(p, "command", body, named[1:], budget_nodes)
            continue
        for flags, kwargs in (*_COMMON, *arguments):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=body, budget_nodes=budget_nodes)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser, with arguments on the one command that argv names.

    Every group and command is registered with its help, so help, usage and
    "invalid choice" errors read as if all were built.  Options follow the
    final subcommand and groups take no option but ``-h``, so argparse can
    only descend along the first two arguments that do not start with "-"
    (no name does); only that branch gets its arguments.  ``argv`` of None
    reads ``sys.argv[1:]``, as ``parse_args`` does.
    """
    budget_nodes = _env_node_budget()
    argv = sys.argv[1:] if argv is None else argv
    named = [arg for arg in argv if not arg.startswith("-")][:2]
    parser = argparse.ArgumentParser(
        prog="digitop",
        description="workbench for coincidence and fixed-point spectra of digital images",
    )
    _add_branch(parser, "group", _COMMANDS, named, budget_nodes)
    return parser


def cli_dispatch(argv=None) -> int:
    try:
        parser = build_parser(argv)
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
