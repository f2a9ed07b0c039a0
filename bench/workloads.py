"""The four benchmark workloads: seeded inputs, timed queries, answer checks.

Query ids starting with ``fx/`` run on fixed fixtures, so their answers are
the same for every seed and are checked against the committed reference on
any seed. Ids starting with ``sd/`` run on images drawn from the seed and
are checked against the reference only on the reference seed; on every seed
they also pass the seed-free invariants in ``check_invariants``.

Importing this module imports ``digitop``, so the worker counts it as
set-up time.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import digitop as dt


def failed(answer: dict) -> bool:
    """A query fails when it raised, gave an inexact answer, or exited wrongly.

    The same predicate as ``run.failed``; importing ``run`` here would put
    the orchestrator's imports inside the timed set-up.
    """
    return "error" in answer or answer.get("exact") is False


@dataclass
class Query:
    """One timed library call and the canonical JSON form of its answer."""

    qid: str
    call: Callable[[], object]
    canon: Callable[[object], dict]
    fact: tuple = ()
    heavy: bool = False
    # kept for the post-sweep membership check on are_homotopic queries
    maps: tuple = ()
    # expected answer fields from tests/oracles.py, for images of <= 4 points
    oracle: Callable | None = None


@dataclass
class CliCommand:
    """One digitop command line, run as its own process."""

    qid: str
    argv: list
    expected_exit: int
    env: dict


# ---------------------------------------------------------------------------
# canonical answers


def spectrum(s) -> dict:
    return {
        "values": list(s.values),
        "exact": s.exact,
        "i": s.i,
        "stabilized_at": s.stabilized_at,
    }


def by_arity(family) -> dict:
    return {
        "spectra": {str(i): list(s.values) for i, s in sorted(family.items())},
        "exact": all(s.exact for s in family.values()),
    }


def hclass(cls) -> dict:
    members = sorted(m.assignment for m in cls.members)
    blob = json.dumps(members, separators=(",", ":")).encode()
    return {
        "size": len(members),
        "members": hashlib.sha256(blob).hexdigest()[:16],
        "exact": cls.complete,
    }


def ternary(verdict) -> dict:
    return {"verdict": verdict, "exact": verdict != "unknown"}


def boolean(value) -> dict:
    return {"value": bool(value)}


def hspectrum(result) -> dict:
    return {
        "values": list(result.values.values),
        "exact": result.values.exact,
        "classes_complete": result.classes_complete,
        "min": result.min_value,
    }


def minimum(pair) -> dict:
    value, exact = pair
    return {"value": value, "exact": exact}


def sequence(seq) -> dict:
    return {
        "entries": [list(e) for e in seq.entries],
        "exact": all(e[2] for e in seq.entries),
    }


def reports(rows) -> dict:
    return {
        "reports": [[r.check_id, r.instance, r.verdict] for r in rows],
        "exact": all(r.verdict != "skipped" for r in rows),
    }


def _continuous(f) -> bool:
    cod = f.codomain
    return all(
        f.assignment[i] == f.assignment[j] or cod.adjacent(f.assignment[i], f.assignment[j])
        for i, j in f.domain.edges
    )


def homotopy_answer(f, g):
    """Canonical are_homotopic answer; checks the witness chain on its own."""

    def canon(answer) -> dict:
        row = {"verdict": answer.verdict, "exact": answer.verdict != "unknown"}
        if answer.witness is not None:
            chain = answer.witness.chain
            cod = f.codomain
            ok = (
                chain[0].assignment == f.assignment
                and chain[-1].assignment == g.assignment
                and all(_continuous(m) for m in chain)
                and all(
                    a == b or cod.adjacent(a, b)
                    for m, n in zip(chain, chain[1:])
                    for a, b in zip(m.assignment, n.assignment)
                )
            )
            row["chain_length"] = len(chain)
            row["chain_ok"] = ok
        return row

    return canon


# ---------------------------------------------------------------------------
# seeded inputs


class Draw:
    """Seeded inputs: shapes from a fixed catalogue, point labels from the seed.

    Every seed sees isomorphic copies of the same random_connected_image
    catalogue under fresh random labels, so the answers and the search
    order change with the seed while the cost mix of a sweep stays put.
    Drawing the shapes from the seed instead makes one seed's sweep several
    times costlier than another's, and no timing would repeat across seeds.
    """

    def __init__(self, workload: str, seed: int):
        self.shapes = random.Random(f"{workload}:shapes")
        self.labels = random.Random(f"{workload}:{seed}")

    def _perm(self, n: int) -> list[int]:
        perm = list(range(n))
        self.labels.shuffle(perm)
        return perm

    def image(self, n_points: int, extra_edge_prob: float = 0.35):
        base = dt.random_connected_image(self.shapes, n_points, extra_edge_prob)
        return relabel(base, self._perm(n_points))

    def maps(self, nx: int, ny: int, count: int):
        """Images X, Y and ``count`` continuous maps X -> Y."""
        base_x = dt.random_connected_image(self.shapes, nx)
        base_y = dt.random_connected_image(self.shapes, ny)
        bases = [random_map(self.shapes, base_x, base_y) for _ in range(count)]
        px, py = self._perm(nx), self._perm(ny)
        x_img, y_img = relabel(base_x, px), relabel(base_y, py)
        maps = []
        for f in bases:
            assignment = [0] * nx
            for point, value in enumerate(f.assignment):
                assignment[px[point]] = py[value]
            maps.append(dt.from_assignment(x_img, y_img, assignment))
        return x_img, y_img, maps


def relabel(img, perm: list[int]):
    """The image with point i renamed perm[i]."""
    return dt.DigitalImage(
        points=tuple((i,) for i in range(img.n_points)),
        adjacency=dt.Explicit({(perm[i], perm[j]) for i, j in img.edges}),
    )


def random_map(rng: random.Random, x_img, y_img):
    """A continuous map drawn by assigning points in BFS order.

    Each value is drawn from the codomain points compatible with the values
    already given to its neighbours; a dead end falls back to a constant.
    """
    closed = [nb | {v} for v, nb in enumerate(y_img.neighbor_sets())]
    nbrs = x_img.neighbor_sets()
    order, seen = [], set()
    for start in range(x_img.n_points):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(nbrs[v]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    for _ in range(20):
        assign = {}
        for v in order:
            cands = set(range(y_img.n_points))
            for u in nbrs[v]:
                if u in assign:
                    cands &= closed[assign[u]]
            if not cands:
                break
            assign[v] = rng.choice(sorted(cands))
        else:
            return dt.from_assignment(x_img, y_img, [assign[i] for i in range(x_img.n_points)])
    return dt.constant(x_img, y_img, rng.randrange(y_img.n_points))


def small(img, oracle):
    """Keep an oracle only where the brute force is affordable."""
    return oracle if img.n_points <= 4 else None


def _class_oracle(f):
    def expected(o):
        members = sorted(o.homotopy_class_oracle(f.domain, f.codomain, f.assignment))
        blob = json.dumps([list(m) for m in members], separators=(",", ":")).encode()
        return {"size": len(members), "members": hashlib.sha256(blob).hexdigest()[:16]}

    return small(f.domain, expected)


def _constants(o, f) -> bool:
    cls = o.homotopy_class_oracle(f.domain, f.codomain, f.assignment)
    return any(len(set(a)) == 1 for a in cls)


def _homotopic_oracle(f, g):
    def expected(o):
        cls = o.homotopy_class_oracle(f.domain, f.codomain, f.assignment)
        return {"verdict": "yes" if g.assignment in cls else "no"}

    return small(f.domain, expected)


def _key(img) -> str:
    return img.name or json.dumps([img.n_points, list(img.edges)], separators=(",", ":"))


# ---------------------------------------------------------------------------
# library workloads


def equalizer_sweep(draw: Draw, tiny: bool) -> list[Query]:
    """Coincidence and fixed-point spectra: almost all equalizer search."""
    b = dt.builders
    queries = []
    for sizes, m in (
        ((1, 1), 2), ((1, 1), 3), ((2, 1), 3), ((1, 1, 1), 2), ((1, 1, 1), 3),
        ((2, 2), 3), ((3, 1), 3), ((2, 1, 1), 2), ((2, 1, 1), 3),
        ((1, 1, 1, 1), 2), ((1, 1, 1, 1), 3), ((3, 2), 3), ((2, 2, 1), 3),
        ((2, 1, 1, 1), 3), ((1, 1, 1, 1, 1), 2),
    ):
        x_img, y_img = dt.disjoint_paths(sizes), b.discrete(m)
        queries.append(
            Query(
                f"fx/by_arity/{x_img.name}/discrete:{m}",
                lambda x=x_img, y=y_img: dt.coincidence_spectra_by_arity(x, y, 3),
                by_arity,
                fact=("cs", x_img.name, y_img.name),
                heavy=len(sizes) >= 4 and m == 3,
                oracle=small(x_img, lambda o, x=x_img, y=y_img: {
                    "spectra": {str(i): sorted(o.cs_oracle(x, y, i)) for i in (2, 3)}}),
            )
        )
    for sizes in ((1, 1, 1, 1), (2, 1, 1, 1)):
        x_img, y_img = dt.disjoint_paths(sizes), b.discrete(3)
        queries.append(
            Query(
                f"fx/cs_union/{x_img.name}/discrete:3/3",
                lambda x=x_img, y=y_img: dt.coincidence_spectrum_union(x, y, 3),
                spectrum,
                fact=("cs", x_img.name, y_img.name),
            )
        )
    queries.append(
        Query("fx/conjecture/4/3/3", lambda: dt.conjecture_search(4, 3, 3), reports)
    )
    for x_img in (b.cube(), b.cube_minus_vertex()):
        queries.append(
            Query(
                f"fx/cs/{x_img.name}/self/3",
                lambda x=x_img: dt.coincidence_spectrum_by_search(x, x, 3),
                spectrum,
                fact=("cs", x_img.name, x_img.name),
            )
        )
    fixtures = [b.cube(), b.cube_minus_vertex(), b.cycle(6), b.tee4(), b.square4(), b.interval(0, 4)]
    for x_img in fixtures:
        for m, i in ((2, 2), (2, 3), (3, 2)):
            y_img = b.discrete(m)
            queries.append(
                Query(
                    f"fx/cs/{x_img.name}/{y_img.name}/{i}",
                    lambda x=x_img, y=y_img, i=i: dt.coincidence_spectrum_by_search(x, y, i),
                    spectrum,
                    fact=("cs", x_img.name, y_img.name),
                    oracle=small(x_img, lambda o, x=x_img, y=y_img, i=i: {
                        "values": sorted(o.cs_oracle(x, y, i))}),
                )
            )
        queries.append(
            Query(
                f"fx/cs/{x_img.name}/self/2",
                lambda x=x_img: dt.coincidence_spectrum_by_search(x, x, 2),
                spectrum,
                fact=("cs", x_img.name, x_img.name),
                oracle=small(x_img, lambda o, x=x_img: {"values": sorted(o.cs_oracle(x, x, 2))}),
            )
        )
        queries.append(
            Query(
                f"fx/f/{x_img.name}",
                lambda x=x_img: dt.fixed_point_spectrum(x),
                spectrum,
                fact=("f", x_img.name),
                oracle=small(x_img, lambda o, x=x_img: {"values": sorted(o.fixed_spectrum_oracle(x))}),
            )
        )
    for x_img, i in ((b.cube_minus_vertex(), 2), (b.cycle(6), 3), (b.interval(0, 4), 2),
                     (b.tee4(), 2), (b.square4(), 3)):
        queries.append(
            Query(
                f"fx/cfs/{x_img.name}/{i}",
                lambda x=x_img, i=i: dt.common_fixed_spectrum(x, i),
                spectrum,
                fact=("cfs", x_img.name),
                oracle=small(x_img, lambda o, x=x_img, i=i: {"values": sorted(o.cfs_oracle(x, i))}),
            )
        )
    # No query of this workload runs much over 0.1 s, so a sweep stays short
    # and a run holds many. That left out paths:1+1+1+1+1 -> discrete:3 and
    # the cube_minus_vertex CFS union (about 0.5 s each, three fifths of a
    # sweep's time between them).
    for x_img, i_max in ((b.cycle(6), 3), (b.interval(0, 3), 3), (b.square4(), 3), (b.tee4(), 3)):
        queries.append(
            Query(
                f"fx/cfs_union/{x_img.name}/{i_max}",
                lambda x=x_img, i=i_max: dt.common_fixed_spectrum_union(x, i),
                spectrum,
                fact=("cfs", x_img.name),
                oracle=small(x_img, lambda o, x=x_img, i=i_max: {"values": sorted(o.cfs_oracle(x, i))}),
            )
        )
    for k in range(2 if tiny else 8):
        x_img = draw.image(4 + k % 2)
        xk = _key(x_img)
        two = b.discrete(2)
        queries += [
            Query(f"sd/{k}/f", lambda x=x_img: dt.fixed_point_spectrum(x), spectrum, fact=("f", xk)),
            Query(f"sd/{k}/cs/self/2", lambda x=x_img: dt.coincidence_spectrum_by_search(x, x, 2),
                  spectrum, fact=("cs", xk, xk)),
            Query(f"sd/{k}/cs/discrete:2/2", lambda x=x_img, y=two: dt.coincidence_spectrum_by_search(x, y, 2),
                  spectrum, fact=("cs", xk, two.name)),
            Query(f"sd/{k}/cs/discrete:2/3", lambda x=x_img, y=two: dt.coincidence_spectrum_by_search(x, y, 3),
                  spectrum, fact=("cs", xk, two.name)),
            Query(f"sd/{k}/cfs/2", lambda x=x_img: dt.common_fixed_spectrum(x, 2), spectrum, fact=("cfs", xk)),
            Query(f"sd/{k}/cfs_union/2", lambda x=x_img: dt.common_fixed_spectrum_union(x, 2),
                  spectrum, fact=("cfs", xk)),
        ]
    return queries


def homotopy_closure(draw: Draw, tiny: bool) -> list[Query]:
    """Homotopy classes and decisions, each query on its own (X, Y) pair."""
    b = dt.builders
    cmv, f1 = b.cube_minus_vertex(), b.figure1()
    c8, c4 = b.cycle(8), b.cycle(4)
    wrap = dt.from_assignment(c8, c4, [v % 4 for v in range(8)])
    i4, i3, c6 = b.interval(0, 4), b.interval(0, 3), b.cycle(6)
    tee, c5 = b.tee4(), b.cycle(5)
    queries = [
        Query("fx/class/id/figure1", lambda: dt.homotopy_class(dt.identity(f1)), hclass),
        Query("fx/class/const/tee4/cycle:5", lambda: dt.homotopy_class(dt.constant(tee, c5, 0)), hclass,
              oracle=_class_oracle(dt.constant(tee, c5, 0))),
        Query("fx/rigid/cycle:5", lambda: dt.is_rigid_image(c5), boolean),
        Query("fx/rigid/cube_minus_vertex", lambda: dt.is_rigid_image(cmv), boolean),
        Query("fx/contractible/cube", lambda: dt.is_contractible(b.cube()), ternary),
        Query("fx/contractible/cycle:6", lambda: dt.is_contractible(c6), ternary),
        Query("fx/contractible/square4", lambda: dt.is_contractible(b.square4()), ternary,
              oracle=lambda o: {"verdict": "yes" if _constants(o, dt.identity(b.square4())) else "no"}),
        Query("fx/nullhomotopic/wrap/cycle:8/cycle:4", lambda: dt.is_nullhomotopic(wrap), ternary),
    ]
    for qid, f, g in (
        ("fx/homotopic/id-const/interval:0:4", dt.identity(i4), dt.constant(i4, i4, 0)),
        ("fx/homotopic/id-const/tee4", dt.identity(tee), dt.constant(tee, tee, 2)),
        ("fx/homotopic/id-rot/cycle:7",
         dt.identity(b.cycle(7)), dt.from_assignment(b.cycle(7), b.cycle(7), [(v + 1) % 7 for v in range(7)])),
        ("fx/homotopic/const-const/interval:0:5/cycle:6",
         dt.constant(b.interval(0, 5), c6, 0), dt.constant(b.interval(0, 5), c6, 3)),
    ):
        queries.append(Query(qid, lambda f=f, g=g: dt.are_homotopic(f, g), homotopy_answer(f, g),
                             oracle=_homotopic_oracle(f, g)))
    # constant-map classes of 100-2 000 members: costlier than any seeded query
    for x_img, y_img in (
        (i4, b.cube()), (i4, cmv),
        (i3, cmv), (i3, b.cube()), (tee, cmv), (tee, b.cube()), (b.square4(), cmv),
        (b.square4(), b.cube()), (i4, c6), (i4, b.interval(0, 5)), (b.interval(0, 2), b.cube()),
        (i3, b.cycle(8)), (tee, b.cycle(8)), (i4, b.cycle(8)),
    ):
        queries.append(
            Query(f"fx/class/const/{x_img.name}/{y_img.name}",
                  lambda f=dt.constant(x_img, y_img, 0): dt.homotopy_class(f), hclass)
        )
    # Per ten seeded pairs: one closure, one early-stopping are_homotopic and
    # eight cheap decisions. Where are_homotopic stops depends on the search
    # order, so on the labels, and its cost changes with the seed; the cheap
    # decisions outnumber it so that the median query lies among them.
    for k in range(6 if tiny else 100):
        x_img, y_img, (f, g) = draw.maps(4, 4 + k // 10 % 2, 2)
        kind = (0, 2, 3, 2, 3, 1, 2, 3, 2, 3)[k % 10]
        if kind == 0:
            queries.append(Query(f"sd/{k}/class", lambda f=f: dt.homotopy_class(f), hclass,
                                 oracle=_class_oracle(f)))
        elif kind == 1:
            queries.append(
                Query(f"sd/{k}/homotopic", lambda f=f, g=g: dt.are_homotopic(f, g),
                      homotopy_answer(f, g), maps=(f, g), oracle=_homotopic_oracle(f, g))
            )
        elif kind == 2:
            queries.append(Query(f"sd/{k}/nullhomotopic", lambda f=f: dt.is_nullhomotopic(f), ternary,
                                 oracle=small(x_img, lambda o, f=f: {
                                     "verdict": "yes" if _constants(o, f) else "no"})))
        else:
            queries.append(Query(f"sd/{k}/contractible", lambda x=x_img: dt.is_contractible(x), ternary,
                                 oracle=small(x_img, lambda o, f=dt.identity(x_img): {
                                     "verdict": "yes" if _constants(o, f) else "no"})))
    return queries


def class_minima(draw: Draw, tiny: bool) -> list[Query]:
    """Class-restricted minima and spectra, several queries per image."""
    b = dt.builders
    images = [b.interval(0, 5), b.interval(0, 4), b.tee4(), b.square4(), b.cycle(5), b.cycle(6), b.figure1()]
    images = [(x.name, x) for x in images[: 3 if tiny else None]]
    images += [(f"sd/{k}", draw.image(4) if k >= 3 else draw.image(5, 0.2)) for k in range(2 if tiny else 19)]
    queries = []
    for label, x_img in images:
        xk = _key(x_img)
        prefix = label if label.startswith("sd/") else f"fx/{label}"
        ident = dt.identity(x_img)
        const = dt.constant(x_img, x_img, 0)
        n = x_img.n_points
        queries += [
            Query(f"{prefix}/mj/4", lambda x=x_img: dt.self_coincidence_sequence(x, 4), sequence,
                  fact=("mj", xk), oracle=small(x_img, lambda o, x=x_img: {
                      "entries": [[j, o.mj_oracle(x, j), True] for j in range(1, 5)]})),
            Query(f"{prefix}/mc/2", lambda f=ident: dt.mc([f, f]), minimum, fact=("mc2", xk),
                  oracle=small(x_img, lambda o, x=x_img: {"value": o.mj_oracle(x, 2)})),
            Query(f"{prefix}/mcf/1", lambda f=ident: dt.mcf([f]), minimum, fact=("mcf1", xk),
                  oracle=small(x_img, lambda o, x=x_img: {
                      "value": min(o.hfs_oracle(x, [tuple(range(x.n_points))]))})),
            Query(f"{prefix}/hfs/1", lambda f=ident: dt.hfs([f]), hspectrum, fact=("hfs1", xk),
                  oracle=small(x_img, lambda o, x=x_img: {
                      "values": sorted(o.hfs_oracle(x, [tuple(range(x.n_points))]))})),
        ]
        if x_img.n_points < 10:  # figure1's constant maps form a class too large to sweep
            queries.append(
                Query(f"{prefix}/hcs/id-const", lambda f=ident, g=const: dt.hcs([f, g]), hspectrum,
                      oracle=small(x_img, lambda o, x=x_img, n=n: {
                          "values": sorted(o.hcs_oracle(x, x, [tuple(range(n)), (0,) * n]))}))
            )
    return queries


LIBRARY = {
    "equalizer-sweep": equalizer_sweep,
    "homotopy-closure": homotopy_closure,
    "class-minima": class_minima,
}


def build_library(name: str, seed: int, tiny: bool) -> list[Query]:
    queries = LIBRARY[name](Draw(name, seed), tiny)
    if tiny:
        queries = [q for q in queries if not q.heavy]
    return queries


# ---------------------------------------------------------------------------
# cli-batch


def build_cli(seed: int, workdir, pairs: int = 7) -> list[CliCommand]:
    """Write the seeded image and map files and return the command list.

    Each seeded (X, Y) pair gets the same ten file-based commands; with the
    fixed builtin and malformed-input commands that makes 100 commands.
    """
    draw = Draw("cli-batch", seed)
    js = ["--format", "json"]
    rows = [
        ("fx/image-info/cube", ["image", "info", "builtin:cube"], 0),
        ("fx/image-info/figure1/json", ["image", "info", "builtin:figure1", *js], 0),
        ("fx/image-build/cycle:5", ["image", "build", "cycle:5"], 0),
        ("fx/maps-count/cycle:4", ["maps", "count", "builtin:cycle:4", "builtin:cycle:4"], 0),
        ("fx/maps-count/tee4-square4/json", ["maps", "count", "builtin:tee4", "builtin:square4", *js], 0),
        ("fx/maps-enumerate/json",
         ["maps", "enumerate", "builtin:interval:0:2", "builtin:discrete:2", *js], 0),
        ("fx/rigid/figure1", ["homotopy", "rigid", "builtin:figure1"], 0),
        ("fx/rigid/cube_minus_vertex", ["homotopy", "rigid", "builtin:cube_minus_vertex"], 0),
        ("fx/contractible/cycle:5/json", ["homotopy", "contractible", "builtin:cycle:5", *js], 0),
        ("fx/cs/cube/2", ["spectrum", "cs", "builtin:cube", "builtin:cube", "--i", "2"], 0),
        ("fx/cs/cycle:4/discrete:2/3/json",
         ["spectrum", "cs", "builtin:cycle:4", "builtin:discrete:2", "--i", "3", *js], 0),
        ("fx/f/cycle:6", ["spectrum", "f", "builtin:cycle:6"], 0),
        ("fx/f/tee4/json", ["spectrum", "f", "builtin:tee4", *js], 0),
        ("fx/cfs-union/square4/json",
         ["spectrum", "cfs", "builtin:square4", "--union", "--i-max", "3", *js], 0),
        ("fx/mj/cycle:6", ["hspectrum", "mj", "builtin:cycle:6", "--j-max", "3"], 0),
        ("fx/conjecture/json", ["conjecture", "--max-x", "3", "--max-y", "2", "--i-max", "3", *js], 0),
    ]
    rows += [
        (f"fx/image-info/{name}", ["image", "info", f"builtin:{name}", *js], 0)
        for name in ("cube_minus_vertex", "singleton", "square4", "tee4", "cycle:7",
                     "interval:0:5", "discrete:3")
    ]
    for k in range(pairs):
        x_img, y_img, (f, g) = draw.maps(4, 4, 2)
        files = {
            "x.json": dt.dump_image(x_img),
            "f.json": dt.dump_map(f),
            "g.json": dt.dump_map(g),
            "id.json": dt.dump_map(dt.identity(x_img)),
            "const.json": dt.dump_map(dt.constant(x_img, x_img, 0)),
        }
        pair_dir = workdir / f"pair{k}"
        pair_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (pair_dir / name).write_text(text + "\n")
        p = {name: str(pair_dir / name) for name in files}
        rows += [
            (f"sd/{k}/image-info/json", ["image", "info", p["x.json"], *js], 0),
            (f"sd/{k}/map-check", ["map", "check", p["f.json"]], 0),
            (f"sd/{k}/map-apply/json", ["map", "apply", p["f.json"], "--point", "0", *js], 0),
            (f"sd/{k}/class/json", ["homotopy", "class", p["f.json"], *js], 0),
            (f"sd/{k}/homotopic/json", ["homotopy", "are-homotopic", p["f.json"], p["g.json"], *js], 0),
            (f"sd/{k}/rigid/map", ["homotopy", "rigid", p["id.json"]], 0),
            (f"sd/{k}/f/json", ["spectrum", "f", p["x.json"], *js], 0),
            (f"sd/{k}/mc", ["hspectrum", "mc", p["id.json"], p["id.json"]], 0),
            (f"sd/{k}/hcs/json", ["hspectrum", "hcs", p["id.json"], p["const.json"], *js], 0),
            (f"sd/{k}/mcf", ["hspectrum", "mcf", p["id.json"]], 0),
        ]
    bad = {
        "bad.json": '{"points": [[0], [1]], "dimension": ',
        "broken.json": json.dumps(
            {"domain": "builtin:interval:0:2", "codomain": "builtin:interval:0:2",
             "assignment": [0, 2, 0]}
        ),
    }
    for name, text in bad.items():
        (workdir / name).write_text(text + "\n")
    rows += [
        ("fx/bad/unknown-builtin", ["image", "info", "builtin:nosuch"], 2),
        ("fx/bad/invalid-json", ["image", "info", str(workdir / "bad.json")], 2),
        ("fx/bad/discontinuous-map", ["map", "check", str(workdir / "broken.json")], 1),
        ("fx/bad/missing-file", ["spectrum", "cs", str(workdir / "missing.json"), "builtin:cube"], 2),
        ("fx/bad/arity-zero", ["spectrum", "cs", "builtin:cube", "builtin:cube", "--i", "0"], 2),
        ("fx/bad/unknown-command", ["frobnicate"], 2),
    ]
    commands = [CliCommand(qid, argv, code, {}) for qid, argv, code in rows]
    # Known defect: a malformed budget variable raises ValueError out of the
    # option parser, so this exits 1 with a traceback and counts as failed.
    commands.append(
        CliCommand("fx/bad/budget-env", ["image", "info", "builtin:cube"], 2,
                   {"DIGITOP_BUDGET_NODES": "abc"})
    )
    return commands


def cli_expectations(workdir) -> dict:
    """Library answers that the seeded CLI commands must repeat."""
    expected = {}
    for pair_dir in sorted(workdir.glob("pair*")):
        k = pair_dir.name[len("pair"):]
        f = dt.load_map(str(pair_dir / "f.json"))
        g = dt.load_map(str(pair_dir / "g.json"))
        x_img = dt.load_image(str(pair_dir / "x.json"))
        ident = dt.identity(x_img)
        expected[f"sd/{k}/map-check"] = f"continuous map on {x_img.n_points} points"
        expected[f"sd/{k}/f/json"] = list(dt.fixed_point_spectrum(x_img).values)
        expected[f"sd/{k}/homotopic/json"] = dt.are_homotopic(f, g).verdict
        expected[f"sd/{k}/mc"] = dt.mc([ident, ident])[0]
    return expected


def normalize_stdout(text: str) -> str:
    """Drop timing and witness-chain fields from JSON rows before comparing."""
    lines = []
    for line in text.splitlines():
        if line.startswith("{") and line.endswith("}"):
            row = json.loads(line)
            row.pop("elapsed", None)
            row.pop("chain", None)  # one of possibly many shortest chains
            line = json.dumps(row, sort_keys=True)
        lines.append(line)
    return "\n".join(lines)


def check_cli(answers: dict, expected: dict) -> list[str]:
    problems = []
    for qid, want in expected.items():
        ans = answers.get(qid)
        if ans is None or ans.get("exit") != 0:
            continue
        out = ans["stdout"]
        if qid.endswith("/map-check"):
            got = out
        elif qid.endswith("/f/json"):
            got = json.loads(out)["values"]
        elif qid.endswith("/homotopic/json"):
            got = json.loads(out)["verdict"]
        else:
            got = int(out.split("=")[1])
        if got != want:
            problems.append(f"{qid}: CLI said {got!r}, library says {want!r}")
    return problems


# ---------------------------------------------------------------------------
# seed-free invariants


def check_invariants(queries: list[Query], answers: dict) -> list[str]:
    """Laws every correct answer set satisfies, whatever the seed."""
    problems = []
    cs: dict = {}
    cfs: dict = {}
    unions: dict = {}
    facts: dict = {}
    for q in queries:
        ans = answers.get(q.qid)
        if ans is None or failed(ans) or not q.fact:
            continue
        kind = q.fact[0]
        if kind == "cs":
            per_i = cs.setdefault(q.fact[1:], {})
            if "spectra" not in ans and ans["i"] is None:
                unions.setdefault(q.fact[1:], []).append(set(ans["values"]))
            elif "spectra" in ans:
                for i, values in ans["spectra"].items():
                    per_i[int(i)] = set(values)
            else:
                per_i[ans["i"]] = set(ans["values"])
        elif kind == "cfs":
            cfs.setdefault(q.fact[1], []).append(ans)
        else:
            facts[q.fact] = ans
    for pair, per_i in cs.items():
        arities = sorted(per_i)
        for lo, hi in zip(arities, arities[1:]):
            if not per_i[lo] <= per_i[hi]:
                problems.append(f"CS_{lo} not within CS_{hi} for {pair}")
        for union in unions.get(pair, []):
            if not all(values <= union for values in per_i.values()):
                problems.append(f"CS_i not within the CS union for {pair}")
    for key, ans in facts.items():
        if key[0] == "f":
            cs2 = cs.get((key[1], key[1]), {}).get(2)
            if cs2 is not None and not set(ans["values"]) <= cs2:
                problems.append(f"F(X) not within CS_2(X, X) for {key[1]}")
        if key[0] == "mj":
            values = [v for _, v, _ in ans["entries"]]
            if any(b > a for a, b in zip(values, values[1:])):
                problems.append(f"m_j increases for {key[1]}: {values}")
            mc2 = facts.get(("mc2", key[1]))
            if mc2 is not None and mc2["value"] != values[1]:
                problems.append(f"MC(id, id) = {mc2['value']} but m_2 = {values[1]} for {key[1]}")
        if key[0] == "mcf1":
            hfs1 = facts.get(("hfs1", key[1]))
            if hfs1 is not None and hfs1["min"] != ans["value"]:
                problems.append(f"MCF(id) = {ans['value']} but min HFS(id) = {hfs1['min']} for {key[1]}")
    for x, rows in cfs.items():
        union = [set(r["values"]) for r in rows if r["i"] is None]
        for r in rows:
            if r["i"] is not None and union and not set(r["values"]) <= union[0]:
                problems.append(f"CFS_{r['i']} not within the CFS union for {x}")
    for qid, ans in answers.items():
        if ans.get("chain_ok") is False:
            problems.append(f"{qid}: invalid witness chain")
        if "reports" in ans and any(r[2] == "fail" for r in ans["reports"]):
            problems.append(f"{qid}: a conjecture report failed")
    return problems


def check_membership(queries: list[Query], answers: dict) -> list[str]:
    """are_homotopic says yes exactly when g lies in homotopy_class(f)."""
    problems = []
    for q in queries:
        ans = answers.get(q.qid)
        if not q.maps or ans is None or failed(ans):
            continue
        f, g = q.maps
        inside = g in dt.homotopy_class(f)
        if inside != (ans["verdict"] == "yes"):
            problems.append(f"{q.qid}: are_homotopic says {ans['verdict']}, class membership {inside}")
    return problems
