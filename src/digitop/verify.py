"""Machine checks for the mathematical laws the package computes with.

Two suites: ``paper-fixtures`` runs every check on the builtin images;
``random-small`` re-checks the universally quantified laws on seeded
random instances.  ``conjecture_search`` sweeps disconnected domains
against edgeless codomains looking for a spectrum that keeps growing
with arity; none is expected, but the sweep reports whatever it finds.

Every report is reproducible from its instance description plus the seed
recorded in its details.
"""

from __future__ import annotations

import itertools
import random
import time

from . import builders
from ._record import Record
from .enumeration import EnumerationBudget, enumerate_continuous_maps
from .errors import InvalidInputError
from .homotopy import homotopy_class, is_contractible, is_rigid_image
from .homotopy_spectra import hcs_of_classes, hfs_of_classes, self_coincidence_sequence
from .images import CT, DigitalImage, Explicit, Isomorphism, is_totally_disconnected
from .maps import (
    DigitalMap,
    coincidence_set,
    conjugate,
    constant,
    fixed_point_set,
    from_assignment,
    identity,
)
from .spectra import (
    coincidence_spectra_by_arity,
    coincidence_spectrum,
    coincidence_spectrum_by_search,
    fixed_point_spectrum,
)


class VerificationReport(Record):
    _fields = ("check_id", "instance", "verdict", "elapsed", "details")
    check_id: str
    instance: str
    verdict: str  # pass, fail, or skipped (budget)
    elapsed: float
    details: dict

    def __init__(
        self,
        check_id: str,
        instance: str,
        verdict: str,
        elapsed: float,
        details: dict | None = None,
    ):
        object.__setattr__(self, "check_id", check_id)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "elapsed", elapsed)
        object.__setattr__(self, "details", {} if details is None else details)

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "instance": self.instance,
            "verdict": self.verdict,
            "elapsed": round(self.elapsed, 6),
            "details": self.details,
        }


class RunConfig(Record):
    """Settings of a verification run; random instances have 1..max_random_points points."""

    _fields = (
        "budget", "i_max", "j_max", "seed", "random_instances", "max_random_points"
    )
    budget: EnumerationBudget | None
    i_max: int
    j_max: int
    seed: int
    random_instances: int
    max_random_points: int

    def __init__(
        self,
        budget: EnumerationBudget | None = None,
        i_max: int = 4,
        j_max: int = 4,
        seed: int = 0,
        random_instances: int = 40,
        max_random_points: int = 6,
    ):
        if random_instances < 0:
            raise InvalidInputError(
                f"random_instances must be at least 0, got {random_instances}"
            )
        if max_random_points < 1:
            raise InvalidInputError(
                f"max_random_points must be at least 1, got {max_random_points}"
            )
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "i_max", i_max)
        object.__setattr__(self, "j_max", j_max)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "random_instances", random_instances)
        object.__setattr__(self, "max_random_points", max_random_points)


SUITES = ("paper-fixtures", "random-small", "all")

# Dense 6-point instances can have homotopy classes with thousands of
# members; the class-restricted spectrum sweeps over their products are the
# only unbounded cost in the random suites.  Unbudgeted runs get these
# deterministic caps instead, and a tripped cap reports "skipped".
_RANDOM_CLASS_NODE_BUDGET = 2_000_000
_RANDOM_CLASS_PRODUCT_CAP = 300_000


def _run(check_id: str, instance: str, seed: int, fn) -> VerificationReport:
    """Time one check body; fn returns (verdict, details)."""
    started = time.perf_counter()
    verdict, details = fn()
    details = dict(details)
    details.setdefault("seed", seed)
    return VerificationReport(
        check_id=check_id,
        instance=instance,
        verdict=verdict,
        elapsed=time.perf_counter() - started,
        details=details,
    )


def _vals(values) -> list[int]:
    return sorted(values)


def _describe(img: DigitalImage) -> str:
    return img.name or f"{img.n_points}pts/{len(img.edges)}edges"


# ---------------------------------------------------------------------------
# fixture catalogues

def _tiny_images() -> list[DigitalImage]:
    """Every fixture with at most 4 points; small enough for any brute force."""
    return [
        builders.singleton(),
        builders.discrete(2),
        builders.discrete(3),
        builders.interval(0, 1),
        builders.interval(0, 2),
        builders.interval(0, 3),
        builders.cycle(3),
        builders.cycle(4),
        builders.square4(),
        builders.tee4(),
    ]


def _connected_images(max_points: int = 8) -> list[DigitalImage]:
    imgs = [
        builders.singleton(),
        builders.interval(0, 1),
        builders.interval(0, 2),
        builders.interval(0, 3),
        builders.interval(0, 4),
        builders.cycle(3),
        builders.cycle(4),
        builders.cycle(5),
        builders.cycle(6),
        builders.square4(),
        builders.tee4(),
        builders.cube_minus_vertex(),
        builders.cube(),
    ]
    return [x for x in imgs if x.n_points <= max_points]


def _relabel(img: DigitalImage, perm: list[int]) -> tuple[DigitalImage, Isomorphism]:
    """A fresh image with point i renamed perm[i], plus the isomorphism onto it."""
    edges = {(perm[i], perm[j]) for i, j in img.edges}
    relabeled = DigitalImage(
        points=tuple((i,) for i in range(img.n_points)),
        adjacency=Explicit(edges),
    )
    return relabeled, Isomorphism(img, relabeled, tuple(perm))


# ---------------------------------------------------------------------------
# fixture checks

def check_lemma_cardinality(config: RunConfig) -> list[VerificationReport]:
    """#X is always achievable, and 0 is whenever the codomain has two points."""
    reports = []
    images = _tiny_images()
    for x_img, y_img in itertools.product(images, repeat=2):
        def body(x_img=x_img, y_img=y_img):
            n = x_img.n_points
            for i in (2, config.i_max):
                s = coincidence_spectrum(x_img, y_img, i, config.budget)
                if not s.exact:
                    return "skipped", {"reason": f"budget tripped at i={i}"}
                bad = (
                    n not in s.as_set()
                    or (y_img.n_points > 1 and 0 not in s.as_set())
                    or not s.as_set() <= set(range(n + 1))
                )
                if bad:
                    return "fail", {
                        "i": i,
                        "values": _vals(s.values),
                        "x_image": x_img.to_json_dict(),
                        "y_image": y_img.to_json_dict(),
                    }
            return "pass", {}
        reports.append(
            _run(
                "lemma-cardinality",
                f"X={_describe(x_img)} Y={_describe(y_img)}",
                config.seed,
                body,
            )
        )
    return reports


def check_lemma_full_range(config: RunConfig) -> list[VerificationReport]:
    """With an adjacent pair in Y, CS_2 is all of {0..#X}.

    Small instances are confirmed by the exhaustive subset search; larger
    ones by the witness construction the public operation uses.
    """
    reports = []
    xs = _tiny_images() + [builders.cube_minus_vertex(), builders.cube(), builders.figure1()]
    ys = [y for y in _tiny_images() if y.edges] + [builders.cube()]
    for x_img, y_img in itertools.product(xs, ys):
        def body(x_img=x_img, y_img=y_img):
            n = x_img.n_points
            expected = set(range(n + 1))
            s = coincidence_spectrum(x_img, y_img, 2, config.budget)
            if s.as_set() != expected:
                return "fail", {
                    "values": _vals(s.values),
                    "expected": _vals(expected),
                    "x_image": x_img.to_json_dict(),
                    "y_image": y_img.to_json_dict(),
                }
            if x_img.n_points <= 4 and y_img.n_points <= 4:
                searched = coincidence_spectrum_by_search(x_img, y_img, 2, config.budget)
                if searched.exact and searched.as_set() != expected:
                    return "fail", {
                        "search_values": _vals(searched.values),
                        "expected": _vals(expected),
                        "x_image": x_img.to_json_dict(),
                        "y_image": y_img.to_json_dict(),
                    }
            return "pass", {}
        reports.append(
            _run(
                "lemma-full-range",
                f"X={_describe(x_img)} Y={_describe(y_img)}",
                config.seed,
                body,
            )
        )
    return reports


def check_monotone(config: RunConfig) -> list[VerificationReport]:
    """CS_i grows with i, and is constant once the codomain has an edge."""
    reports = []
    images = _tiny_images()
    i_max = max(3, min(config.i_max, 4))
    for x_img, y_img in itertools.product(images, repeat=2):
        def body(x_img=x_img, y_img=y_img):
            by_arity = coincidence_spectra_by_arity(x_img, y_img, i_max, config.budget)
            if not all(s.exact for s in by_arity.values()):
                return "skipped", {"reason": "budget tripped"}
            chain = [by_arity[i].as_set() for i in range(2, i_max + 1)]
            for a, b in zip(chain, chain[1:]):
                if not a <= b:
                    return "fail", {
                        "chain": [_vals(c) for c in chain],
                        "x_image": x_img.to_json_dict(),
                        "y_image": y_img.to_json_dict(),
                    }
            if y_img.edges and any(c != chain[0] for c in chain):
                return "fail", {
                    "reason": "expected equality with an adjacent pair in Y",
                    "chain": [_vals(c) for c in chain],
                    "x_image": x_img.to_json_dict(),
                    "y_image": y_img.to_json_dict(),
                }
            public = coincidence_spectrum(x_img, y_img, 2, config.budget)
            if public.exact and public.as_set() != chain[0]:
                return "fail", {
                    "reason": "search route disagrees with the public operation",
                    "search": _vals(chain[0]),
                    "public": _vals(public.values),
                    "x_image": x_img.to_json_dict(),
                    "y_image": y_img.to_json_dict(),
                }
            return "pass", {}
        reports.append(
            _run(
                "monotone",
                f"X={_describe(x_img)} Y={_describe(y_img)}",
                config.seed,
                body,
            )
        )
    return reports


def check_fx_subset(config: RunConfig) -> list[VerificationReport]:
    """Every achievable fixed-point count is an achievable coincidence count."""
    reports = []
    images = _connected_images() + [builders.discrete(2), builders.discrete(3)]
    for x_img in images:
        def body(x_img=x_img):
            f_spec = fixed_point_spectrum(x_img, config.budget)
            cs2 = coincidence_spectrum(x_img, x_img, 2, config.budget)
            if not (f_spec.exact and cs2.exact):
                return "skipped", {"reason": "budget tripped"}
            if not f_spec.as_set() <= cs2.as_set():
                return "fail", {
                    "f_values": _vals(f_spec.values),
                    "cs2_values": _vals(cs2.values),
                    "x_image": x_img.to_json_dict(),
                }
            return "pass", {"f_values": _vals(f_spec.values)}
        reports.append(_run("fx-subset", f"X={_describe(x_img)}", config.seed, body))
    return reports


def check_totally_disconnected(config: RunConfig) -> list[VerificationReport]:
    """Connected domain, edgeless codomain: only 0 and #X are achievable."""
    reports = []
    images = _connected_images() + [builders.figure1()]
    for x_img in images:
        for m in (2, 3):
            def body(x_img=x_img, m=m):
                y_img = builders.discrete(m)
                n = x_img.n_points
                for i in range(2, config.i_max + 1):
                    s = coincidence_spectrum(x_img, y_img, i, config.budget)
                    if not s.exact:
                        return "skipped", {"reason": f"budget tripped at i={i}"}
                    if s.as_set() != {0, n}:
                        return "fail", {
                            "i": i,
                            "values": _vals(s.values),
                            "expected": _vals({0, n}),
                            "x_image": x_img.to_json_dict(),
                        }
                return "pass", {}
            reports.append(
                _run(
                    "totally-disconnected",
                    f"X={_describe(x_img)} Y=discrete:{m}",
                    config.seed,
                    body,
                )
            )
    return reports


def _sample_maps(x_img: DigitalImage, y_img: DigitalImage, limit: int = 6):
    outcome = enumerate_continuous_maps(x_img, y_img)
    pool = list(outcome.maps)
    picked = pool[:limit] + pool[-2:]
    picked += [constant(x_img, y_img, y) for y in range(y_img.n_points)]
    seen, result = set(), []
    for m in picked:
        if m.assignment not in seen:
            seen.add(m.assignment)
            result.append(m)
    return result


def check_nested_coincidence(config: RunConfig) -> list[VerificationReport]:
    """Adding a map to a tuple can only shrink the coincidence set."""
    reports = []
    pairs = [
        (builders.interval(0, 2), builders.interval(0, 2)),
        (builders.interval(0, 3), builders.cycle(4)),
        (builders.cycle(4), builders.tee4()),
        (builders.square4(), builders.tee4()),
        (builders.discrete(3), builders.discrete(2)),
    ]
    for x_img, y_img in pairs:
        def body(x_img=x_img, y_img=y_img):
            maps = _sample_maps(x_img, y_img)
            for tup in itertools.islice(itertools.product(maps, repeat=4), 0, 256):
                sets = [set(coincidence_set(tup[: k + 1])) for k in range(4)]
                for bigger, smaller in zip(sets, sets[1:]):
                    if not smaller <= bigger:
                        return "fail", {
                            "tuple": [list(m.assignment) for m in tup],
                            "x_image": x_img.to_json_dict(),
                            "y_image": y_img.to_json_dict(),
                        }
            return "pass", {}
        reports.append(
            _run(
                "nested-coincidence",
                f"X={_describe(x_img)} Y={_describe(y_img)}",
                config.seed,
                body,
            )
        )
    return reports


def _iso_instance_ok(x_img: DigitalImage, rng: random.Random) -> tuple[bool, dict]:
    perm = list(range(x_img.n_points))
    rng.shuffle(perm)
    relabeled, phi = _relabel(x_img, perm)
    pool = enumerate_continuous_maps(x_img, x_img).maps
    picked = [pool[rng.randrange(len(pool))] for _ in range(3)]
    moved = [conjugate(f, phi) for f in picked]
    original = coincidence_set(picked)
    transported = coincidence_set(moved)
    fix_ok = all(
        len(fixed_point_set(f)) == len(fixed_point_set(g))
        for f, g in zip(picked, moved)
    )
    spectra_ok = (
        fixed_point_spectrum(x_img).as_set() == fixed_point_spectrum(relabeled).as_set()
    )
    ok = len(original) == len(transported) and fix_ok and spectra_ok
    details = {
        "perm": perm,
        "maps": [list(f.assignment) for f in picked],
        "coincidence_sizes": [len(original), len(transported)],
    }
    return ok, details


def check_iso_invariance(config: RunConfig) -> list[VerificationReport]:
    """Conjugation by an isomorphism preserves every coincidence count."""
    rng = random.Random(config.seed)
    reports = []
    for x_img in [x for x in _tiny_images() if x.n_points >= 2]:
        def body(x_img=x_img):
            ok, details = _iso_instance_ok(x_img, rng)
            if not ok:
                details["x_image"] = x_img.to_json_dict()
                return "fail", details
            return "pass", {}
        reports.append(_run("iso-invariance", f"X={_describe(x_img)}", config.seed, body))
    return reports


def _hcs_inclusion_ok(
    f: DigitalMap, g: DigitalMap, budget, product_cap: int | None = None
) -> tuple[bool, bool, dict]:
    """Returns (ok, exact, details) for HCS(f,g) vs HCS(f,g,g) and HFS likewise."""
    cls_f = homotopy_class(f, budget)
    if cls_f.complete and g.assignment in {m.assignment for m in cls_f.members}:
        cls_g = cls_f
    else:
        cls_g = homotopy_class(g, budget)
    if product_cap is not None and cls_f.complete and cls_g.complete:
        product = len(cls_f.members) * len(cls_g.members)
        if product > product_cap:
            return True, False, {"reason": f"class product {product} exceeds cap"}
    shorter = hcs_of_classes([cls_f, cls_g], budget)
    longer = hcs_of_classes([cls_f, cls_g, cls_g], budget)
    exact = shorter.values.exact and longer.values.exact
    ok = shorter.values.as_set() <= longer.values.as_set()
    details = {
        "hcs_2": _vals(shorter.values.values),
        "hcs_3": _vals(longer.values.values),
    }
    if ok and f.is_self_map():
        h_short = hfs_of_classes([cls_f, cls_g], budget)
        h_long = hfs_of_classes([cls_f, cls_g, cls_g], budget)
        exact = exact and h_short.values.exact and h_long.values.exact
        ok = h_short.values.as_set() <= h_long.values.as_set()
        details["hfs_2"] = _vals(h_short.values.values)
        details["hfs_3"] = _vals(h_long.values.values)
    return ok, exact, details


def check_hcs_monotone(config: RunConfig) -> list[VerificationReport]:
    """Repeating the last argument can only enlarge a homotopy spectrum."""
    reports = []
    images = [
        builders.interval(0, 2),
        builders.interval(0, 3),
        builders.cycle(3),
        builders.cycle(4),
        builders.square4(),
        builders.tee4(),
    ]
    for x_img in images:
        def body(x_img=x_img):
            ok, exact, details = _hcs_inclusion_ok(
                identity(x_img), constant(x_img, x_img, 0), config.budget
            )
            if not exact:
                return "skipped", {"reason": "budget tripped"}
            if not ok:
                details["x_image"] = x_img.to_json_dict()
                return "fail", details
            return "pass", {}
        reports.append(_run("hcs-monotone", f"X={_describe(x_img)}", config.seed, body))
    return reports


def check_rigid_hcs(config: RunConfig) -> list[VerificationReport]:
    """On a rigid image nothing can move: HCS of identities is exactly {#X}."""
    reports = []
    for x_img in [builders.figure1(), builders.singleton()]:
        def body(x_img=x_img):
            if not is_rigid_image(x_img):
                return "fail", {"reason": "fixture is not rigid", "x_image": x_img.to_json_dict()}
            cls = homotopy_class(identity(x_img), config.budget)
            for i in range(2, config.i_max + 1):
                result = hcs_of_classes([cls] * i, config.budget)
                if result.values.as_set() != {x_img.n_points}:
                    return "fail", {
                        "i": i,
                        "values": _vals(result.values.values),
                        "x_image": x_img.to_json_dict(),
                    }
            return "pass", {}
        reports.append(_run("rigid-hcs", f"X={_describe(x_img)}", config.seed, body))
    return reports


def _mj_monotone_verdict(x_img: DigitalImage, j_max: int, budget) -> tuple[str, dict]:
    seq = self_coincidence_sequence(x_img, j_max, budget)
    if not all(exact for _, _, exact in seq.entries):
        return "skipped", {"reason": "budget tripped", "entries": list(seq.entries)}
    values = [value for _, value, _ in seq.entries]
    if values[0] != x_img.n_points:
        return "fail", {"entries": list(seq.entries), "x_image": x_img.to_json_dict()}
    if any(a < b for a, b in zip(values, values[1:])):
        return "fail", {"entries": list(seq.entries), "x_image": x_img.to_json_dict()}
    return "pass", {"entries": list(seq.entries)}


def check_mj_monotone(config: RunConfig) -> list[VerificationReport]:
    """The self-coincidence sequence never increases."""
    reports = []
    images = [
        builders.interval(0, 2),
        builders.interval(0, 3),
        builders.interval(0, 4),
        builders.cycle(3),
        builders.cycle(4),
        builders.cycle(5),
        builders.cycle(6),
        builders.square4(),
        builders.tee4(),
        builders.figure1(),
    ]
    for x_img in images:
        reports.append(
            _run(
                "mj-monotone",
                f"X={_describe(x_img)}",
                config.seed,
                lambda x_img=x_img: _mj_monotone_verdict(x_img, config.j_max, config.budget),
            )
        )
    return reports


def _cycle_fixed_spectrum(n: int) -> set[int]:
    if n == 1:
        return {1}
    if n <= 4:
        return set(range(n + 1))
    return set(range(n // 2 + 2)) | {n}


def check_figure_examples(
    config: RunConfig,
    cube_img: DigitalImage | None = None,
    cube_minus: DigitalImage | None = None,
    fig1: DigitalImage | None = None,
) -> list[VerificationReport]:
    """The concrete numbers attached to the stock figures.

    Fixtures are injectable so tests can confirm a corrupted image is
    actually caught.
    """
    cube_img = cube_img or builders.cube()
    cube_minus = cube_minus or builders.cube_minus_vertex()
    fig1 = fig1 or builders.figure1()
    items: list[tuple[str, object, object]] = []

    f_cube = fixed_point_spectrum(cube_img, config.budget)
    items.append(("F(cube)", _vals(f_cube.values), [0, 1, 2, 3, 4, 5, 6, 8]))
    items.append(
        (
            "CS_2(cube,cube)",
            _vals(coincidence_spectrum(cube_img, cube_img, 2, config.budget).values),
            list(range(9)),
        )
    )
    items.append(
        (
            "CS_2(cube,cube_minus_vertex)",
            _vals(coincidence_spectrum(cube_img, cube_minus, 2, config.budget).values),
            list(range(9)),
        )
    )
    items.append(
        (
            "CS_2(cube,singleton)",
            _vals(
                coincidence_spectrum(cube_img, builders.singleton(), 2, config.budget).values
            ),
            [cube_img.n_points],
        )
    )
    items.append(("contractible(cube)", is_contractible(cube_img, config.budget), "yes"))
    items.append(
        ("contractible(cube_minus_vertex)", is_contractible(cube_minus, config.budget), "yes")
    )
    items.append(("rigid(figure1)", is_rigid_image(fig1), True))

    square, tee = builders.square4(), builders.tee4()
    f_map = from_assignment(square, tee, (1, 0, 1, 2))
    g_map = from_assignment(square, tee, (0, 1, 3, 1))
    c_map = constant(square, tee, 3)
    items.append(
        ("C(f,g,c) on square4->tee4", list(coincidence_set([f_map, g_map, c_map])), [])
    )

    for n in range(1, 8):
        items.append(
            (
                f"F(cycle:{n})",
                _vals(fixed_point_spectrum(builders.cycle(n), config.budget).values),
                _vals(_cycle_fixed_spectrum(n)),
            )
        )

    reports = []
    for name, got, expected in items:
        def body(got=got, expected=expected):
            if got == expected:
                return "pass", {"value": got}
            return "fail", {"value": got, "expected": expected}
        reports.append(_run("figure-examples", name, config.seed, body))
    return reports


_FIXTURE_CHECKS = (
    check_lemma_cardinality,
    check_lemma_full_range,
    check_monotone,
    check_fx_subset,
    check_totally_disconnected,
    check_nested_coincidence,
    check_iso_invariance,
    check_hcs_monotone,
    check_rigid_hcs,
    check_mj_monotone,
    check_figure_examples,
)


# ---------------------------------------------------------------------------
# random instances

def random_image(rng: random.Random, max_points: int) -> DigitalImage:
    """Either a labeled graph with edge probability 1/2 or a CT image on [0,2]^n."""
    if rng.random() < 0.5:
        k = rng.randint(1, max_points)
        edges = {
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if rng.random() < 0.5
        }
        return DigitalImage(
            points=tuple((i,) for i in range(k)), adjacency=Explicit(edges)
        )
    dim = rng.randint(1, 3)
    grid = list(itertools.product((0, 1, 2), repeat=dim))
    k = rng.randint(1, min(max_points, len(grid)))
    points = tuple(rng.sample(grid, k))
    return DigitalImage(points=points, adjacency=CT(rng.randint(1, dim)))


def random_pair_property_reports(
    seed: int,
    count: int,
    max_points: int = 6,
    i_max: int = 3,
    budget: EnumerationBudget | None = None,
) -> list[VerificationReport]:
    """Per random (X, Y): spectrum monotonicity, F(X) within CS_2, nested
    coincidence sets, and homotopy-spectrum inclusion under repetition."""
    rng = random.Random(seed)
    reports = []
    for k in range(count):
        x_img = random_image(rng, max_points)
        y_img = random_image(rng, max_points)
        tag = f"seed={seed} k={k} X={x_img.n_points}p/{len(x_img.edges)}e Y={y_img.n_points}p/{len(y_img.edges)}e"

        def monotone_body(x_img=x_img, y_img=y_img):
            chain = [
                coincidence_spectrum_by_search(x_img, y_img, i, budget)
                for i in range(2, i_max + 1)
            ]
            if not all(s.exact for s in chain):
                return "skipped", {"reason": "budget tripped"}
            for a, b in zip(chain, chain[1:]):
                if not a.as_set() <= b.as_set():
                    return "fail", {
                        "chain": [_vals(s.values) for s in chain],
                        "x_image": x_img.to_json_dict(),
                        "y_image": y_img.to_json_dict(),
                    }
            public = coincidence_spectrum(x_img, y_img, 2, budget)
            if public.exact and public.as_set() != chain[0].as_set():
                return "fail", {
                    "reason": "search route disagrees with the public operation",
                    "search": _vals(chain[0].values),
                    "public": _vals(public.values),
                    "x_image": x_img.to_json_dict(),
                    "y_image": y_img.to_json_dict(),
                }
            n = x_img.n_points
            if not chain[0].as_set() <= set(range(n + 1)) or n not in chain[0].as_set():
                return "fail", {
                    "values": _vals(chain[0].values),
                    "x_image": x_img.to_json_dict(),
                    "y_image": y_img.to_json_dict(),
                }
            return "pass", {}

        def fx_body(x_img=x_img):
            f_spec = fixed_point_spectrum(x_img, budget)
            cs2 = coincidence_spectrum_by_search(x_img, x_img, 2, budget)
            if not (f_spec.exact and cs2.exact):
                return "skipped", {"reason": "budget tripped"}
            if not f_spec.as_set() <= cs2.as_set():
                return "fail", {
                    "f_values": _vals(f_spec.values),
                    "cs2_values": _vals(cs2.values),
                    "x_image": x_img.to_json_dict(),
                }
            return "pass", {}

        def nested_body(x_img=x_img, y_img=y_img, rng=rng):
            pool = enumerate_continuous_maps(x_img, y_img).maps
            for _ in range(8):
                tup = [pool[rng.randrange(len(pool))] for _ in range(4)]
                sets = [set(coincidence_set(tup[: j + 1])) for j in range(4)]
                for bigger, smaller in zip(sets, sets[1:]):
                    if not smaller <= bigger:
                        return "fail", {
                            "tuple": [list(m.assignment) for m in tup],
                            "x_image": x_img.to_json_dict(),
                            "y_image": y_img.to_json_dict(),
                        }
            return "pass", {}

        def hcs_body(x_img=x_img, rng=rng):
            pool = enumerate_continuous_maps(x_img, x_img).maps
            f = pool[rng.randrange(len(pool))]
            g = pool[rng.randrange(len(pool))]
            # exact sweeps are always affordable up to 5 points; only the
            # 6-point tail needs the caps
            hcs_budget, product_cap = budget, None
            if budget is None and x_img.n_points > 5:
                hcs_budget = EnumerationBudget(max_nodes=_RANDOM_CLASS_NODE_BUDGET)
                product_cap = _RANDOM_CLASS_PRODUCT_CAP
            ok, exact, details = _hcs_inclusion_ok(
                f, g, hcs_budget, product_cap=product_cap
            )
            if not exact:
                return "skipped", {"reason": details.get("reason", "budget tripped")}
            if not ok:
                details.update(
                    {
                        "f": list(f.assignment),
                        "g": list(g.assignment),
                        "x_image": x_img.to_json_dict(),
                    }
                )
                return "fail", details
            return "pass", {}

        reports.append(_run("monotone", tag, seed, monotone_body))
        reports.append(_run("fx-subset", tag, seed, fx_body))
        reports.append(_run("nested-coincidence", tag, seed, nested_body))
        reports.append(_run("hcs-monotone", tag, seed, hcs_body))
    return reports


def iso_invariance_reports(
    seed: int,
    count: int,
    max_points: int = 6,
    budget: EnumerationBudget | None = None,
) -> list[VerificationReport]:
    rng = random.Random(seed)
    reports = []
    for k in range(count):
        x_img = random_image(rng, max_points)
        tag = f"seed={seed} k={k} X={x_img.n_points}p/{len(x_img.edges)}e"

        def body(x_img=x_img):
            ok, details = _iso_instance_ok(x_img, rng)
            if not ok:
                details["x_image"] = x_img.to_json_dict()
                return "fail", details
            return "pass", {}

        reports.append(_run("iso-invariance", tag, seed, body))
    return reports


def mj_reports(
    seed: int,
    count: int,
    max_points: int = 6,
    j_max: int = 4,
    budget: EnumerationBudget | None = None,
) -> list[VerificationReport]:
    rng = random.Random(seed)
    reports = []
    for k in range(count):
        x_img = random_image(rng, max_points)
        instance_budget = budget
        if budget is None and x_img.n_points > 5:
            instance_budget = EnumerationBudget(max_nodes=_RANDOM_CLASS_NODE_BUDGET)
        tag = f"seed={seed} k={k} X={x_img.n_points}p/{len(x_img.edges)}e"
        reports.append(
            _run(
                "mj-monotone",
                tag,
                seed,
                lambda x_img=x_img, b=instance_budget: _mj_monotone_verdict(
                    x_img, j_max, b
                ),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# suites

def run_suite(suite_id: str, config: RunConfig | None = None) -> list[VerificationReport]:
    config = config or RunConfig()
    if suite_id not in SUITES:
        raise InvalidInputError(f"unknown suite {suite_id!r}; expected one of {SUITES}")
    reports: list[VerificationReport] = []
    if suite_id in ("paper-fixtures", "all"):
        for check in _FIXTURE_CHECKS:
            reports.extend(check(config))
    if suite_id in ("random-small", "all"):
        n = config.random_instances
        reports.extend(
            random_pair_property_reports(
                config.seed, n, config.max_random_points, budget=config.budget
            )
        )
        reports.extend(
            iso_invariance_reports(
                config.seed + 1, n, config.max_random_points, budget=config.budget
            )
        )
        reports.extend(
            mj_reports(
                config.seed + 2,
                max(1, n // 4),
                config.max_random_points,
                config.j_max,
                budget=config.budget,
            )
        )
    reports.sort(key=lambda r: (r.check_id, r.instance))
    return reports


# ---------------------------------------------------------------------------
# conjecture sweep

def _partitions(total: int, max_part: int | None = None):
    if total == 0:
        yield ()
        return
    cap = max_part if max_part is not None else total
    for part in range(min(total, cap), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part, *rest)


def disjoint_paths(sizes) -> DigitalImage:
    """One path component per entry of sizes, separated by gaps."""
    points: list[tuple[int]] = []
    offset = 0
    for s in sizes:
        points.extend((offset + k,) for k in range(s))
        offset += s + 1
    return DigitalImage(
        points=tuple(points),
        adjacency=CT(1),
        name="paths:" + "+".join(str(s) for s in sizes),
    )


def subset_sums(sizes) -> frozenset[int]:
    sums = {0}
    for s in sizes:
        sums |= {v + s for v in sums}
    return frozenset(sums)


def conjecture_search(
    max_x_points: int = 6,
    max_y_points: int = 3,
    i_max: int = 4,
    config: RunConfig | None = None,
) -> list[VerificationReport]:
    """Does CS_i keep growing with i for disconnected X and edgeless Y?

    Maps into an edgeless codomain are constant on each component, so only
    the multiset of component sizes matters; every disconnected X up to
    max_x_points is realized as disjoint paths.  Each instance checks that
    CS_2 = ... = CS_{i_max} and that CS_2 is exactly the subset sums of the
    component sizes.
    """
    config = config or RunConfig()
    reports = [
        _run(
            "conjecture",
            "reduction-note",
            config.seed,
            lambda: (
                "pass",
                {
                    "note": (
                        "maps to an edgeless codomain are constant per component, "
                        "so instances are exhausted by component-size multisets"
                    )
                },
            ),
        )
    ]
    for total in range(2, max_x_points + 1):
        for sizes in _partitions(total):
            if len(sizes) < 2:
                continue
            x_img = disjoint_paths(sizes)
            for m in range(2, max_y_points + 1):
                y_img = builders.discrete(m)

                def body(x_img=x_img, y_img=y_img, sizes=sizes):
                    by_arity = coincidence_spectra_by_arity(
                        x_img, y_img, i_max, config.budget
                    )
                    if not all(s.exact for s in by_arity.values()):
                        return "skipped", {"reason": "budget tripped"}
                    observed = {i: s.as_set() for i, s in by_arity.items()}
                    predicted = subset_sums(sizes)
                    stable = all(v == observed[2] for v in observed.values())
                    matches = observed[2] == predicted
                    details = {
                        "observed": {str(i): _vals(v) for i, v in observed.items()},
                        "subset_sums": _vals(predicted),
                    }
                    if stable and matches:
                        return "pass", details
                    details["x_image"] = x_img.to_json_dict()
                    details["y_image"] = y_img.to_json_dict()
                    return "fail", details

                reports.append(
                    _run(
                        "conjecture",
                        f"X={x_img.name} Y=discrete:{m} i_max={i_max}",
                        config.seed,
                        body,
                    )
                )
    reports.sort(key=lambda r: (r.check_id, r.instance))
    return reports
